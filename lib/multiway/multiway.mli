(** Multiway-tree baseline (Liau et al., DBISP2P 2004 — reference [10]
    of the BATON paper).

    The second comparison system: an ordered tree overlay with no
    fan-out constraint and no balancing. Each peer keeps links to its
    parent, its children, and its in-order neighbours; there are no
    sideways routing tables. Joins are cheap (walk down to any node
    with a spare child slot); departures are expensive (an internal
    node must consult every child to organise a replacement); searches
    route hop-by-hop through parent/child/neighbour links and funnel
    through the upper tree, so they cost more messages than BATON and
    concentrate load near the root — the contrasts drawn in
    Figures 8(a-e) and in the fault-tolerance discussion.

    A node's range is split with each accepted child (the child takes
    the upper half), and a departing leaf merges its range into its
    in-order predecessor, so the key space always tiles across peers
    and range queries work by neighbour walks, as in [10]. *)

type t

val create : ?seed:int -> ?fanout:int -> domain_lo:int -> domain_hi:int -> unit -> t
(** [fanout] bounds how many children a node accepts before forwarding
    joins into its subtree (default 4). *)

val size : t -> int
val metrics : t -> Baton_sim.Metrics.t
val bus : t -> Baton_sim.Bus.t
val peer_ids : t -> int array
val height : t -> int

type join_stats = { peer : int; search_msgs : int; update_msgs : int }

val join : t -> join_stats
(** Add one peer via a random existing peer (bootstraps an empty
    network). *)

type leave_stats = { search_msgs : int; update_msgs : int }

val leave : t -> int -> leave_stats
(** Graceful departure of the given peer. *)

val insert : t -> int -> int
(** Store a key; returns messages spent. *)

val delete : t -> int -> bool * int
val lookup : t -> int -> bool * int

val range_query : t -> lo:int -> hi:int -> int list * int
(** Keys in the closed interval and the messages spent. *)

val node_load : t -> int -> int
(** Keys stored at a peer. *)

val check : t -> unit
(** Verify tree shape, range tiling, neighbour links and data
    placement. @raise Failure on the first violation. *)
