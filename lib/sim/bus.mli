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
(** Raised by {!send} when the destination peer is permanently failed.
    Carries the failed peer id. *)

exception Timeout of int
(** Raised by {!send} when the fault model loses the message or the
    destination is transiently unresponsive. The message was
    transmitted (and counted); no answer will come. Carries the
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

type trace_ctx = {
  trace : int;  (** trace (operation-episode) id *)
  span : int;  (** this message's own span id *)
  parent : int;  (** span id of the causing message, [-1] at the root *)
  op : string;  (** kind of the operation that originated the episode *)
}
(** Causal trace context carried by a message (Dapper-style). The bus
    only transports it: allocation, causality bookkeeping and analysis
    live in [Baton_obs.Trace]. Carrying a context is free — it changes
    neither accounting nor the fault model, so traced and untraced runs
    of the same seed count identical messages. *)

val send : ?ctx:trace_ctx -> t -> src:int -> dst:int -> kind:string -> unit
(** Account one message. Self-sends ([src = dst]) are free: a node
    consulting its own state passes no network message. Messages to
    failed peers are still counted — they are transmitted, and the
    missing answer is how the sender discovers the failure. When [ctx]
    is given, the message carries that causal trace context; hop
    subscribers can read it via {!sending_ctx} while their hook runs.
    @raise Unreachable if [dst] is permanently failed.
    @raise Timeout if the fault model drops the message or [dst] is
    transiently unresponsive. *)

val sending_ctx : t -> trace_ctx option
(** The trace context of the message currently passing through {!send}
    — [Some] only while hop hooks run for a message that carries one. *)

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

val partition_blocked : t -> src:int -> dst:int -> bool
(** Would a message from [src] to [dst] be blocked right now? *)

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

(** {1 Hop-trace subscriptions}

    Any number of observers (latency measurement, CLI tracing, tests)
    can watch the bus at once. Each
    {!subscribe} returns a token; {!unsubscribe} removes only that
    hook, so independent observers compose instead of clobbering each
    other. Hooks run in subscription order, after the message is
    counted and before any failure outcome is decided, so every
    observer sees every transmitted message. *)

type hop_hook = src:int -> dst:int -> kind:string -> unit

type subscription

val subscribe : t -> hop_hook -> subscription
(** Install a hook observing every accounted message. *)

val unsubscribe : t -> subscription -> unit
(** Remove one previously installed hook; unknown tokens are ignored. *)

val subscriber_count : t -> int

val unhooked : t -> t
(** A shallow copy of the bus sharing all its state (metrics, failures,
    fault models) but carrying no subscribers and no probe — the value
    to marshal, since closures cannot be serialized. The original keeps
    its hooks. *)

(** {1 Delivery probe}

    One wall-clock probe bracketing every transit of {!send} (metrics
    accounting, subscriber hooks, fault layers) — the self-profiler's
    ["bus.delivery"] meter. Unlike subscribers it also wraps the
    failure outcomes: [after] runs whether the send delivers, times
    out, or finds the peer dead. Must be a pure observer; like
    subscribers, {!unhooked} leaves it out. *)

type probe = { before : unit -> unit; after : unit -> unit }

val set_probe : t -> probe option -> unit
val probe : t -> probe option
