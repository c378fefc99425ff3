(** Per-link latency model.

    The paper measures message counts only; this model gives every hop
    a delivery delay so operations also have latencies. Each ordered
    peer pair gets a deterministic latency drawn once from a
    heavy-tailed distribution (a base RTT plus exponential jitter) —
    the same pair always costs the same, as on a real topology where
    peers have fixed network distance. The one clock that charges these
    delays is the concurrent runtime ([Baton_runtime.Runtime]): it
    suspends an operation at each hop, so its completion time is its
    critical path. Timed alone without fan-out, an operation's latency
    is the sum of {!of_pair} over its hops — see DESIGN.md §3.7. *)

type t

val create : ?seed:int -> ?base_ms:float -> ?jitter_ms:float -> unit -> t
(** [base_ms] (default 20.) is the minimum one-way latency; the jitter
    adds an exponential tail with the given mean (default 60.). *)

val of_pair : t -> src:int -> dst:int -> float
(** One-way latency in milliseconds for this ordered pair.
    Deterministic: repeated calls return the same value. *)
