(** Demand observability: per-peer load attribution, heavy-hitter
    sketches, and a key-space heat histogram.

    The dense [Metrics] arrays say how many messages each peer handled;
    this module says {e why} and {e where}: every delivered message is
    attributed to a class — did the peer own the answer ([Serve]),
    forward it ([Route]), do tree maintenance ([Maint]), or handle
    cache traffic ([Aux]) — while accessed keys feed a deterministic
    space-saving top-k sketch and a fixed-resolution histogram, and
    per-peer demand feeds exponentially-decayed counters whose
    max/mean ratio is a recency-weighted skew.

    A heat instrument is purely an observer, like the tracer and
    profiler: it never sends a message, consults no protocol PRNG
    and reads no wall clock, so installing one leaves [Metrics.total]
    and the latency digests byte-identical (guard-tested), and
    same-seed runs export byte-identical heat reports — the sketch
    breaks all ties deterministically and the decayed counters use only
    the simulation's virtual clock. *)

(** {1 Decayed counters} *)

module Decay : sig
  (** Per-peer counters with lazy exponential decay: a bump adds 1 to a
      value that halves every [half_life] time units. O(1) per touch,
      no periodic sweep, deterministic IEEE arithmetic. *)

  type t

  val create : half_life:float -> t
  (** @raise Invalid_argument if [half_life <= 0]. *)

  val decayed : half_life:float -> float -> at:float -> now:float -> float
  (** [decayed ~half_life v ~at ~now] — the pure decay law: [v] stamped
      at time [at], read at [now]. Clamps backwards time to no decay.
      Exposed for property tests. *)

  val bump : t -> int -> now:float -> unit
  (** Add one (decayed-in-place) unit of demand to a peer.
      @raise Invalid_argument on a negative peer id. *)

  val value : t -> int -> now:float -> float
  (** Current decayed value (0 for untouched peers). *)

  val stats : t -> now:float -> float * float * int
  (** [(max, mean, touched)] over peers that ever recorded demand;
      [(0, 0, 0)] when none has. *)
end

(** {1 Heavy-hitter sketch} *)

module Sketch : sig
  (** Space-saving top-k sketch (Metwally et al.) over integer keys:
      O(k) memory, and for every monitored key the estimate overcounts
      the true frequency by at most its per-entry [err], which is
      itself at most [total / k]; any key with true frequency above
      [total / k] is guaranteed monitored. Property-tested against an
      exact-count model.

      Fully deterministic: no hashing or randomization; eviction breaks
      count ties toward the smallest monitored key and {!entries} sorts
      by (count desc, key asc), so identical access sequences export
      byte-identical tables. *)

  type t

  val create : int -> t
  (** Sketch monitoring at most [k] keys.
      @raise Invalid_argument if [k < 1]. *)

  val k : t -> int
  val total : t -> int
  (** Number of {!add}s so far. *)

  val add : t -> int -> unit
  (** Record one access to a key. *)

  val estimate : t -> int -> (int * int) option
  (** [(count, err)] for a currently-monitored key: the true access
      count lies in [[count - err, count]]. [None] if unmonitored. *)

  val entries : t -> (int * int * int) list
  (** All monitored [(key, count, err)], count descending then key
      ascending. *)

  val topk_share : t -> float
  (** Guaranteed fraction of all adds held by the monitored entries:
      the sum of [count - err] lower bounds over {!total}, in
      [[0, 1]]. (Raw counts would be useless — they sum to {!total} by
      construction, making that ratio identically 1 once the sketch is
      full.) Uniform demand churns every slot and drives this toward 0;
      real heavy hitters keep small errors and push it toward their
      true share. [0.] before any add. *)
end

(** {1 The heat instrument} *)

type cls = Serve | Route | Maint | Aux
    (** What a delivered message meant for the peer that handled it:
        the operation terminated there ([Serve]), it was a transit hop
        ([Route]), it was join/leave/restructure/repair/notify
        maintenance ([Maint]), or it was route-cache traffic ([Aux] —
        the same traffic [Metrics] books under [aux_total]). *)

type t

val create :
  ?k:int -> ?buckets:int -> ?half_life:float -> lo:int -> hi:int -> unit -> t
(** Instrument for demand over the key domain [[lo, hi)]: a [k]-entry
    sketch (default 16), a [buckets]-bucket histogram (default 64,
    clamped to the domain width), and decayed counters with the given
    [half_life] (default 1000 time units).
    @raise Invalid_argument if [hi <= lo], [buckets < 1] or
    [half_life <= 0]. *)

val set_clock : t -> (unit -> float) option -> unit
(** Clock for the decayed counters. The driver installs the engine's
    virtual clock; with [None] (the default) an internal per-access
    event counter is used — deterministic either way, never the wall
    clock. The closure makes an instrument unmarshallable, which is why
    it lives in [Net]'s hooks, which [Net.save] never writes. *)

(** {2 Write side — called by [Net] and the protocol layer} *)

val hop : t -> peer:int -> cls -> unit
(** Attribute one delivered message to the peer that handled it.
    [Net.send_raw] calls this with the kind's default class; timed-out
    and unreachable attempts are never attributed (nobody handled
    them). @raise Invalid_argument on a negative peer id. *)

val promote : t -> peer:int -> was:cls -> unit
(** Reclassify one already-recorded hop at [peer] from [was] to
    [Serve]: the protocol layer calls this when it learns that the
    delivered message terminated the operation there — the transport
    cannot know that at delivery time. A no-op when [was] is already
    [Serve]. *)

val access : t -> peer:int -> int -> unit
(** Record demand for one key, served at [peer]: feeds the sketch, the
    histogram and the peer's decayed counter. Pass [peer = -1] to
    record the key without peer attribution. *)

val access_range : t -> peer:int -> lo:int -> hi:int -> unit
(** Record one range access [[lo, hi]]: every overlapped histogram
    bucket heats, the sketch monitors the range's low endpoint (entries
    stay point keys a shedding policy can act on), and [peer]'s decayed
    counter bumps once. *)

(** {2 Read side} *)

val accesses : t -> int
(** Keys/ranges recorded via {!access} / {!access_range}. *)

val count : t -> cls -> int -> int
(** Attributed hops of one class at one peer. *)

val class_total : t -> cls -> int
(** Attributed hops of one class across all peers. *)

val sketch : t -> Sketch.t
val topk_share : t -> float

val uniform_share : t -> float
(** What {!topk_share} would read if demand were uniform: the larger of
    [k / touched-key-span] (the true uniform share of k keys) and
    [k / accesses] (the sketch's churn floor — evicted slots keep a
    guaranteed count of one). The baseline the monitor's hotspot alert
    compares against. [0.] before any access. *)

val skew : t -> float
(** Max/mean of the decayed per-peer demand counters at the current
    (virtual) time — a recency-weighted load skew, where the monitor's
    [Metrics]-based skew is all-time. [0.] with no demand. *)

(** {1 Export and rendering} *)

val json : t -> Json.t
(** The bench report's [load] section: class totals, per-peer
    attribution rows (capped at the 64 largest totals, with
    [touched]/[listed] making the cap explicit), the top-k table with
    per-entry error bounds, the heat histogram, and the decayed-skew
    summary. Deterministic — same-seed runs export byte-identical
    sections. *)

val render : Json.t -> (string, string) result
(** Render a {e parsed} [load] section (as produced by {!json} and
    embedded in a bench report) as text: attribution summary, ASCII
    key-space heatmap, and the top-k table. [Error] describes the first
    missing/malformed field — the CLI turns it into a nonzero exit. *)
