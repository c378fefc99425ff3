(** Skip Graph overlay (Aspnes & Shah).

    A comparison overlay for BATON built from the same simulation
    substrate. Every peer draws a random {e membership vector}; the
    peers whose vectors agree on the first [l] bits form the level-[l]
    doubly-linked list, and the level-0 list contains everyone, sorted
    by peer key. Exact search descends from a peer's top level,
    skimming sideways as far as possible before dropping a level —
    O(log n) hops with high probability — and a range query is the
    level-0 neighbour walk from the range's first owner, so range
    support is native rather than bolted on.

    Key ownership is implicit in the level-0 order: the owner of data
    key [k] is the live peer with the greatest peer key [<= k]; the
    global leftmost additionally catches everything below its own key.

    All traffic goes through {!Baton_sim.Bus}, so {!Baton_sim.Metrics}
    accounting, fault injection, causal tracing and the replay oracle
    apply unmodified. Crash recovery is lazy: a hop into a crashed peer
    raises [Bus.Unreachable], the survivor splices the corpse out of
    every list (paid, counted repair messages) and the operation
    retries. *)

type t

val max_levels : int
(** Number of membership-vector bits (62): an upper bound on list
    levels, far above any height reachable at simulated sizes. *)

val create : ?seed:int -> domain_lo:int -> domain_hi:int -> unit -> t
(** Empty skip graph managing data keys in [\[domain_lo, domain_hi)].
    Peer keys are drawn uniformly (and distinctly) from the domain. *)

val size : t -> int
(** Number of live peers. *)

val levels : t -> int
(** Height of the tallest live peer — the number of non-trivial list
    levels. *)

val metrics : t -> Baton_sim.Metrics.t
val bus : t -> Baton_sim.Bus.t

val peer_ids : t -> int array
(** Live peer ids in ascending id order. *)

val peer_ids_by_key : t -> int array
(** Live peer ids in ascending key order — the level-0 list order.
    Useful for key-locality fault patterns (partition islands). *)

(** {1 Membership} *)

type join_stats = {
  peer : int;  (** id of the new peer *)
  search_msgs : int;  (** messages spent locating the join position *)
  update_msgs : int;  (** messages spent splicing lists + moving data *)
}

val join : t -> join_stats
(** Add one peer: search for its key's level-0 position, splice it into
    level 0, then build each upper level by walking the level below
    until a peer sharing one more membership-vector bit is found. The
    predecessor hands over the data now owned by the new peer. *)

type leave_stats = { search_msgs : int; update_msgs : int }

val leave : t -> int -> leave_stats
(** Graceful departure: unlink from every level (notifying both
    neighbours per level) and hand the local store to the predecessor
    (or to the successor when the leftmost departs). *)

val crash : t -> int -> int list
(** Abrupt failure: the peer stops answering ([Bus.Unreachable]) and
    its local store is lost — returned so a caller can feed the replay
    oracle. Lists are repaired lazily when routing trips over the
    corpse. *)

(** {1 Data operations}

    Each operation starts at a uniformly random live peer, routes to
    the key's owner, and returns the hop count (messages paid). *)

val insert : t -> int -> int
val delete : t -> int -> bool * int
val lookup : t -> int -> bool * int

val range_query : t -> lo:int -> hi:int -> int list * int
(** All stored keys in [\[lo, hi\]] in ascending order: one search to
    the owner of [lo], then a rightward level-0 sweep. *)

val bulk_insert : t -> int list -> int
(** Amortized batch insert: one search to the owner of the smallest
    key, then a single rightward distribution pass. *)

(** {1 Validation} *)

val check : t -> unit
(** Full structural audit (god's-eye, free of messages): level-0 list
    sorted and gap-free over all live peers; every upper level exactly
    matches its membership-vector prefix classes; heights tight; every
    stored key inside its holder's range. Links are audited {e through}
    corpses — repair is lazy, so a quiet link may still run into a
    crashed peer; the invariant is that following the chain reaches the
    correct live neighbour. With no unspliced corpse this degenerates to
    strict link equality.
    @raise Failure with a description of the first violation. *)
