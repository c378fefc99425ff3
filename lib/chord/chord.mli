(** Chord baseline (Stoica et al., SIGCOMM 2001).

    The comparison system of the paper's evaluation: a distributed hash
    table over a ring of 2^24 identifiers with finger tables. Lookups
    take O(log N) hops; joining costs an O(log N) successor search plus
    O(log^2 N) messages to initialise the new finger table and update
    other nodes' fingers — the contrast BATON draws in Figures 8(a-d).
    Exact queries hash the key, so range queries are not supported
    (hashing destroys data ordering); {!range_scan_cost} quantifies the
    brute-force alternative.

    Maintenance here is deterministic (fingers are repaired eagerly on
    join and leave rather than by periodic stabilisation), which makes
    message counts reproducible; the asymptotics are the classic
    ones. *)

module Id = Id
(** Ring arithmetic (re-exported). *)

type t
(** A Chord network. *)

type node

val create : ?seed:int -> unit -> t
val size : t -> int
val metrics : t -> Baton_sim.Metrics.t
val bus : t -> Baton_sim.Bus.t

val bootstrap : t -> node
(** First node of the ring.
    @raise Invalid_argument if the network is not empty. *)

type join_stats = {
  peer : int;
  search_msgs : int;  (** messages to find the joining node's successor *)
  update_msgs : int;  (** finger-table construction and repair messages *)
}

val join : t -> join_stats
(** Add one peer, routed via a random existing peer. *)

type leave_stats = {
  search_msgs : int;  (** messages to find the handover target (successor): 0 — it is a direct link *)
  update_msgs : int;  (** key handover, neighbour and finger repair *)
}

val leave : t -> int -> leave_stats
(** Gracefully remove the peer with the given id. *)

val peer_ids : t -> int array

val insert : t -> int -> int
(** [insert t key] stores the key at the successor of its hash; returns
    the number of messages. *)

val delete : t -> int -> int
(** Remove one occurrence; returns the number of messages. *)

val lookup : t -> int -> bool * int
(** [(found, messages)] for an exact-match query from a random peer. *)

val range_scan_cost : t -> int
(** Messages a range query would need under hashing: every peer must be
    visited (the paper's point that DHTs cannot answer range queries
    without a broadcast). *)

val check : t -> unit
(** Verify ring, predecessor, finger and data-placement invariants.
    @raise Failure on the first violation. *)
