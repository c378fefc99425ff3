(** Extension (not a paper figure): a moving hotspot.

    The paper's balancing experiment uses a static Zipf distribution.
    Real skew drifts: this experiment pushes insertion waves whose hot
    region jumps across the key domain and checks that the balancer
    keeps the maximum per-peer load bounded through every phase,
    reporting the load and the balancing traffic per wave. *)

val run : Params.t -> Table.t

val demand : Params.t -> Table.t
(** Demand attribution under Zipf query sweeps: per-theta top-k
    guaranteed share, hottest key, the serve/route split of every
    delivered message, and the decayed per-peer demand skew — the
    measured baseline for replica-aware routing and hotspot shedding to
    beat. *)
