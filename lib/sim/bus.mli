(** Simulated message bus.

    Peers are identified by small integers. A protocol hop from [src]
    to [dst] is accounted by {!send}; if the destination has been
    failed via {!fail}, the send raises {!Unreachable} — exactly how a
    live peer discovers a dead one in the paper (Section III-C: "some
    nodes wishing to access the departed node will discover the address
    unreachable"). The bus never routes anything itself: routing is the
    job of the overlay protocols built on top.

    An optional, seeded fault model adds two weaker failure modes on
    top of permanent crashes: probabilistic message loss and transient
    (temporarily unresponsive) peers. Both surface as {!Timeout} — the
    sender cannot tell a lost message from a slow peer, only that no
    answer came back in time — and both are deterministic per fault
    seed, so faulty runs replay exactly. *)

type t

exception Unreachable of int
(** Raised by {!post} (and so {!send}) when the destination peer is
    permanently failed. Carries the failed peer id. *)

exception Timeout of int
(** Raised by {!post} (and so {!send}) when the fault model loses the
    message or the destination is transiently unresponsive. The message
    was transmitted (and counted); no answer will come. Carries the
    destination peer id. *)

type fault_config = {
  drop_rate : float;  (** per-message loss probability in [\[0, 1\]] *)
  transient_rate : float;
      (** per-message probability that the destination goes silent *)
  transient_len : int;
      (** messages a freshly silent peer ignores (including this one) *)
}

val drop_event : string
(** {!Metrics.event} name bumped on every lost message. *)

val transient_event : string
(** {!Metrics.event} name bumped on every message a transiently
    unresponsive peer ignores. *)

val partition_event : string
(** {!Metrics.event} name bumped on every message a network partition
    blocks. *)

val gray_event : string
(** {!Metrics.event} name bumped on every message lost to a gray
    peer's degraded links. *)

val create : unit -> t

val metrics : t -> Metrics.t
(** The accounting sink for this bus. *)

val post : t -> src:int -> dst:int -> kind:string -> unit
(** Account one message and decide its fate; never suspends. Self-sends
    ([src = dst]) are free: a node consulting its own state passes no
    network message. Messages to failed peers are still counted — they
    are transmitted, and the missing answer is how the sender discovers
    the failure. The fault layers and the delivery probe run here.
    @raise Unreachable if [dst] is permanently failed.
    @raise Timeout if the fault model drops the message or [dst] is
    transiently unresponsive. *)

val send : t -> src:int -> dst:int -> kind:string -> unit
(** {!post}, then — when a runtime has installed a hook with
    {!set_wait} — wait for the hop: the delivery latency, or the
    timeout on [Timeout]/[Unreachable], re-raising the exception after
    the wait. A self-send never waits. The wait runs outside the probe
    bracket. Without a hook, [send] is exactly {!post}.
    @raise Unreachable / [Timeout] as {!post}. *)

val set_faults :
  t ->
  ?transient_len:int ->
  seed:int ->
  drop_rate:float ->
  transient_rate:float ->
  unit ->
  unit
(** Install (or replace) the fault model. The fault PRNG is seeded
    independently of every other stream so the same seed yields the
    same drop/stun sequence for the same order of sends.
    [transient_len] defaults to 2.
    @raise Invalid_argument on rates outside [\[0, 1\]] or
    [transient_len < 1]. *)

val clear_faults : t -> unit
(** Remove the fault model; sends become reliable again. *)

val faults_enabled : t -> bool

val fault_config : t -> fault_config option

val stun : t -> int -> msgs:int -> unit
(** Force a peer to ignore its next [msgs] incoming messages —
    deterministic transient-failure injection for tests.
    @raise Invalid_argument if no fault model is installed. *)

(** {1 Network partitions}

    A partition assigns peers to islands and blocks messages between
    chosen ordered island pairs; a blocked send surfaces as {!Timeout}
    (the sender cannot tell a partition from loss). Blocking an ordered
    pair [(i, j)] stops traffic {e from} island [i] {e to} island [j]
    only, so asymmetric (one-way) partitions are expressible. Peers not
    assigned to any island — e.g. joined while the partition was up —
    are reachable from everywhere. Partition state is plain data and
    survives marshalling. *)

val set_partition :
  t -> assign:(int * int) list -> blocked:(int * int) list -> unit
(** [set_partition t ~assign ~blocked] installs (or replaces) a
    partition. [assign] maps peer id to island index; [blocked] lists
    ordered island pairs [(src_island, dst_island)] that cannot
    communicate. *)

val clear_partition : t -> unit
(** Heal the partition; island assignments are discarded. *)

val partition_active : t -> bool

(** {1 Gray failures}

    Gray peers are never declared dead: their links silently degrade
    instead. Each gray peer carries an extra per-message drop
    probability (applied to any hop touching it, surfacing as
    {!Timeout} and counted under {!gray_event}) and a latency
    multiplier that {!latency_factor} reports for the runtime's
    delivery clock. Gray drops draw from a dedicated seeded PRNG, so
    installing gray peers never perturbs the base fault model's
    drop/stun sequence. *)

val set_gray_model : t -> seed:int -> unit
(** Install (or reset) the gray-failure model with its own PRNG. *)

val clear_gray_model : t -> unit

val set_gray_peer : t -> int -> extra_drop:float -> slow:float -> unit
(** Mark a peer gray: hops touching it are additionally dropped with
    probability [extra_drop] and slowed by factor [slow] (>= 1).
    @raise Invalid_argument without a gray model, on [extra_drop]
    outside [\[0, 1\]], or [slow < 1]. *)

val clear_gray_peer : t -> int -> unit
(** Restore a peer to full health (no-op when not gray). *)

val gray_count : t -> int
val is_gray : t -> int -> bool

val latency_factor : t -> src:int -> dst:int -> float
(** Delivery-latency multiplier for a hop: the worse of the two
    endpoints' slowdown factors, [1.0] when neither is gray. *)

val fail : t -> int -> unit
(** Mark a peer as failed (crashed / abruptly departed). Clears any
    pending transient stun — the crash supersedes it. *)

val revive : t -> int -> unit
(** Clear the failed mark (peer re-joins with a fresh role). Also
    clears any stun left from before the crash, so a revived id never
    silently ignores its first messages. *)

val is_failed : t -> int -> bool

val failed_count : t -> int

val unhooked : t -> t
(** A shallow copy of the bus sharing all its state (metrics, failures,
    fault models) but carrying no probe and no wait hook — the value to
    marshal, since closures cannot be serialized. The original keeps its
    hooks. *)

(** {1 Delivery probe}

    One wall-clock probe bracketing every transit of {!post} (metrics
    accounting, fault layers) — the self-profiler's ["bus.delivery"]
    meter. It also wraps the failure outcomes: [after] runs whether the
    message is delivered, times out, or finds the peer dead. Must be a
    pure observer; {!unhooked} leaves it out. *)

type probe = { before : unit -> unit; after : unit -> unit }

val set_probe : t -> probe option -> unit
val probe : t -> probe option

(** {1 Hop suspension}

    The seam a concurrent runtime drives every overlay through. With a
    hook installed, {!send} calls it after every transmitted message so
    the runtime can park the sending fiber until the virtual clock
    reaches the delivery (or timeout-detection) instant. Protocols that
    need to act between transmission and the wait (count a retry, say)
    call {!post} and {!wait} themselves. The hook observes and delays;
    it never sends, so installing it cannot change [Metrics.total]. *)

type outcome =
  | Delivered  (** the destination received the message *)
  | Timed_out
      (** no answer will come — the message was lost, the destination
          is transiently silent, or it is permanently unreachable; the
          sender only learns this by waiting out its timeout *)

val set_wait : t -> (src:int -> dst:int -> outcome -> unit) option -> unit

val wait_installed : t -> bool

val wait : t -> src:int -> dst:int -> outcome -> unit
(** Run the installed hook for one hop already {!post}ed; a no-op
    without one. *)
