(** Per-peer state.

    Exactly the state the paper prescribes (Section III): a parent
    link, two child links, two adjacent links, a left and a right
    routing table, the managed key range and the locally stored data.
    All remote knowledge is held as {!Link.info} snapshots.

    The five link slots live in one {!Link.kind}-indexed arena
    ([links]) rather than five optional record fields, so the hot
    routing paths walk a flat array and "every link of this node"
    operations are folds over {!Link.all_kinds}. *)

type t = {
  id : int;  (** physical peer id on the bus *)
  mutable pos : Position.t;
  links : Link.info option array;
      (** the five link slots, indexed by {!Link.kind_index}; address
          through {!link}/{!set_link} or the named accessors below *)
  mutable stamp : int;
      (** write stamp: bumped by every write of a link slot
          ({!set_link}, {!update_links_for_peer}/{!drop_links_for_peer}
          when a slot matches) and by {!reset_tables}. With the
          tables' own {!Routing_table.stamp}s it tells an observer
          which peers' links changed; protocol code never touches it *)
  mutable left_table : Routing_table.t;
  mutable right_table : Routing_table.t;
  mutable range : Range.t;
  store : Baton_util.Sorted_store.t;
  mutable balance_backoff : int;
      (** load level below which the node will not retry a failed
          balancing attempt (see {!Balance.maybe_balance}) *)
  mutable epoch : int;
      (** positional epoch: bumped whenever the node's position or
          managed range changes, so role-validated deliveries (route
          cache probes, notifications) can detect a stale addressee *)
  cache : Route_cache.t;
      (** this peer's adaptive route cache; empty and inert unless the
          network enables caching (see {!Net.enable_route_cache}) *)
}

val create : id:int -> pos:Position.t -> range:Range.t -> t
(** Fresh node with empty links, empty tables sized for [pos], empty
    store. *)

val bump_epoch : t -> unit
(** Advance the positional epoch. Called on every position or range
    change; remote epoch snapshots older than the current value are
    stale. *)

val set_range : t -> Range.t -> unit
(** Assign the managed range, bumping the epoch when it changes. All
    protocol-level range mutations go through this so cached shortcuts
    can be validated against an epoch. *)

val info : t -> Link.info
(** Accurate snapshot of this node, as sent inside protocol messages. *)

val level : t -> int
val is_root : t -> bool
val is_leaf : t -> bool

val link : t -> Link.kind -> Link.info option
(** The link held in the given slot. *)

val set_link : t -> Link.kind -> Link.info option -> unit

val parent : t -> Link.info option
val set_parent : t -> Link.info option -> unit

val child : t -> [ `Left | `Right ] -> Link.info option
val set_child : t -> [ `Left | `Right ] -> Link.info option -> unit

val adjacent : t -> [ `Left | `Right ] -> Link.info option
val set_adjacent : t -> [ `Left | `Right ] -> Link.info option -> unit

val table : t -> [ `Left | `Right ] -> Routing_table.t

val tables_full : t -> bool
(** Both routing tables full — the node may accept a child without
    endangering balance (Theorem 1). *)

val neighbor_entries : t -> (int * Link.info) list
(** Filled entries of both tables, left table first, nearest first
    within each side. *)

val load : t -> int
(** Number of locally stored keys. *)

val reset_tables : t -> unit
(** Replace both tables with empty ones sized for the current
    position. Used when a node moves during restructuring. *)

val update_links_for_peer : t -> int -> (Link.info -> Link.info) -> unit
(** Apply a refresh function to every link slot (parent, children,
    adjacents) and both routing tables whose target is the given
    peer — one fold over the link arena. *)

val drop_links_for_peer : t -> int -> unit
(** Null out every link whose target is the given peer. *)

val pp : Format.formatter -> t -> unit
