(** Growable array.

    Amortized O(1) append, O(1) random access, O(1) removal from the
    end. Backbone of the sorted per-peer data store and of several
    simulator internals. *)

type 'a t

val create : unit -> 'a t
(** Fresh empty array. *)

val of_list : 'a list -> 'a t

val length : 'a t -> int
val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** @raise Invalid_argument on out-of-bounds index. *)

val set : 'a t -> int -> 'a -> unit
(** @raise Invalid_argument on out-of-bounds index. *)

val push : 'a t -> 'a -> unit
(** Append at the end. *)

val pop : 'a t -> 'a
(** Remove and return the last element.
    @raise Invalid_argument if empty. *)

val last : 'a t -> 'a
(** @raise Invalid_argument if empty. *)

val insert : 'a t -> int -> 'a -> unit
(** [insert t i x] shifts elements [i..] right by one and stores [x] at
    [i]. O(n - i). [i] may equal [length t] (append). *)

val remove : 'a t -> int -> 'a
(** [remove t i] deletes and returns the element at [i], shifting the
    tail left. O(n - i). *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val exists : ('a -> bool) -> 'a t -> bool
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array

val append_all : 'a t -> 'a t -> unit
(** [append_all dst src] pushes every element of [src] onto [dst]. *)
