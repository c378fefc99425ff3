(** Streaming digest of operation durations (virtual milliseconds).

    Per-operation hop and message counts are integers the paper reasons
    about. The concurrent runtime additionally produces
    latencies, which are floats of simulated time; this digest buckets
    them to tenths of a millisecond on the integer
    {!Baton_util.Histogram}, so a million-operation run stays bounded
    by the number of distinct rounded durations while p50/p95/p99 stay
    within 0.1 ms of exact. Everything here is a pure function of the
    recorded values: two same-seed runs serialize byte-identically. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one duration in virtual ms.
    @raise Invalid_argument on a negative duration. *)

val count : t -> int
val mean : t -> float

val percentile : t -> float -> float
(** Nearest-rank percentile in ms (0.1 ms resolution); [0.] when
    nothing was recorded. *)

val max_ms : t -> float

val json : t -> Json.t
(** Schema-stable summary ([ops], [mean_ms], [p50_ms], [p95_ms],
    [p99_ms], [max_ms]); zeros when nothing was recorded so the field
    set never depends on the data. *)
