(** Structural invariant checks.

    Used pervasively by the test suite and available to applications
    as a diagnostic. Each check raises [Failure] with a descriptive
    message on the first violation; {!all} runs every check. *)

val tree_shape : Net.t -> unit
(** Occupied positions form a proper tree: a root exists (unless the
    network is empty) and every occupied non-root position has an
    occupied parent. *)

val balanced : Net.t -> unit
(** At every occupied position the two subtree heights differ by at
    most one (Definition 1). One pass from the root settles a healthy
    tree in O(N); otherwise this is {!balanced_scan}, whose failure
    text it raises. *)

val balanced_scan : Net.t -> unit
(** {!balanced} peer by peer: both subtree heights at every registered
    peer, O(N * height). Fails on the first unbalanced peer in
    {!Net.peers} order. *)

val height_bound : Net.t -> unit
(** Height <= 1.44 log2 N + 1 (the AVL bound the paper cites). *)

val theorem1 : Net.t -> unit
(** Every node with a child has both routing tables structurally full. *)

val theorem2 : Net.t -> unit
(** If x links to y sideways, x's parent links to y's parent (or they
    share it). Verified structurally over the position map. *)

val links : ?strict:bool -> Net.t -> unit
(** Every node's parent, child, adjacent and routing links point at the
    correct peers. With [strict] (default), cached ranges and child
    flags must equal the targets' current state; without it only the
    peer identities and positions are verified (useful while deferred
    notifications are in flight). *)

val ranges : Net.t -> unit
(** The in-order concatenation of all ranges tiles the key domain with
    no gaps or overlaps, in in-order order. *)

val data_placement : Net.t -> unit
(** Every stored key lies inside its node's range. *)

val all : Net.t -> unit
(** All of the above (links in strict mode). *)

val height : Net.t -> int
(** Height of the occupied tree: 0 for a single node, -1 when empty. *)

val in_order_nodes : Net.t -> Node.t list
(** All nodes in in-order traversal order. *)
