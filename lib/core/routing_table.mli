(** Sideways routing tables.

    Each node keeps a left and a right routing table with links to
    same-level nodes whose numbers differ from its own by powers of two
    (paper Section III). Slot [j] addresses the node at distance [2^j].
    Slots whose position falls outside the level are not represented;
    represented slots may be [None] (no node at that position yet) —
    the table is {e full} when every represented slot is filled. *)

type t

val create : Position.t -> [ `Left | `Right ] -> t
(** Empty table for a node at the given position. *)

val side : t -> [ `Left | `Right ]
val size : t -> int
(** Number of represented slots. *)

val stamp : t -> int
(** Write stamp: starts at 0 and grows with every slot write ({!set},
    and {!update_peer}/{!remove_peer} when a slot matches), so equal
    stamps on the same table mean unchanged slots. *)

val get : t -> int -> Link.info option
(** [get t j]: slot at distance [2^j]; [None] both for empty slots and
    for [j] beyond the table. *)

val set : t -> int -> Link.info option -> unit
(** @raise Invalid_argument if the slot is not represented. *)

val is_full : t -> bool
(** Every represented slot filled — the premise of Theorem 1. *)

val entries : t -> (int * Link.info) list
(** Filled slots as [(slot, info)], nearest first. *)

val filled_count : t -> int

val slot_for : owner:Position.t -> t -> Position.t -> int option
(** [slot_for ~owner t q]: the slot index that addresses position [q]
    from a node at [owner] on this table's side, if the distance is an
    exact represented power of two. *)

val update_peer : t -> int -> (Link.info -> Link.info) -> unit
(** Rewrite every filled slot whose target is the given peer id. *)

val remove_peer : t -> int -> unit
(** Empty every slot pointing at the given peer id. *)

val find : t -> (Link.info -> bool) -> Link.info option
(** Nearest filled entry satisfying the predicate. *)

val find_farthest : t -> (Link.info -> bool) -> Link.info option
(** Farthest filled entry satisfying the predicate — the scan order of
    the paper's exact-search algorithm. *)

val pp : Format.formatter -> t -> unit
