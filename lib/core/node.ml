module Sorted_store = Baton_util.Sorted_store

type t = {
  id : int;
  mutable pos : Position.t;
  links : Link.info option array;
  mutable stamp : int;
  mutable left_table : Routing_table.t;
  mutable right_table : Routing_table.t;
  mutable range : Range.t;
  store : Sorted_store.t;
  mutable balance_backoff : int;
  mutable epoch : int;
  cache : Route_cache.t;
}

let create ~id ~pos ~range =
  {
    id;
    pos;
    links = Array.make Link.num_kinds None;
    stamp = 0;
    left_table = Routing_table.create pos `Left;
    right_table = Routing_table.create pos `Right;
    range;
    store = Sorted_store.create ();
    balance_backoff = 0;
    epoch = 0;
    cache = Route_cache.create ();
  }

let bump_epoch t = t.epoch <- t.epoch + 1

let set_range t range =
  if not (Range.equal t.range range) then begin
    t.range <- range;
    bump_epoch t
  end

let write t i l =
  Array.unsafe_set t.links i l;
  t.stamp <- t.stamp + 1

let link t kind = Array.unsafe_get t.links (Link.kind_index kind)
let set_link t kind l = write t (Link.kind_index kind) l
let parent t = link t Link.Parent
let set_parent t l = set_link t Link.Parent l
let child t side = link t (Link.Child side)
let set_child t side l = set_link t (Link.Child side) l
let adjacent t side = link t (Link.Adjacent side)
let set_adjacent t side l = set_link t (Link.Adjacent side) l

let info t =
  {
    Link.peer = t.id;
    pos = t.pos;
    range = t.range;
    has_left_child = Option.is_some (child t `Left);
    has_right_child = Option.is_some (child t `Right);
  }

let level t = t.pos.Position.level
let is_root t = Position.is_root t.pos
let is_leaf t = Option.is_none (child t `Left) && Option.is_none (child t `Right)
let table t = function `Left -> t.left_table | `Right -> t.right_table

let tables_full t =
  Routing_table.is_full t.left_table && Routing_table.is_full t.right_table

let neighbor_entries t =
  Routing_table.entries t.left_table @ Routing_table.entries t.right_table

let load t = Sorted_store.length t.store

let reset_tables t =
  t.left_table <- Routing_table.create t.pos `Left;
  t.right_table <- Routing_table.create t.pos `Right;
  t.stamp <- t.stamp + 1

let update_links_for_peer t peer f =
  for i = 0 to Link.num_kinds - 1 do
    match Array.unsafe_get t.links i with
    | Some (l : Link.info) when l.Link.peer = peer -> write t i (Some (f l))
    | Some _ | None -> ()
  done;
  Routing_table.update_peer t.left_table peer f;
  Routing_table.update_peer t.right_table peer f

let drop_links_for_peer t peer =
  for i = 0 to Link.num_kinds - 1 do
    match Array.unsafe_get t.links i with
    | Some (l : Link.info) when l.Link.peer = peer -> write t i None
    | Some _ | None -> ()
  done;
  Routing_table.remove_peer t.left_table peer;
  Routing_table.remove_peer t.right_table peer

let pp fmt t =
  Format.fprintf fmt "node %d at %a range %a load %d %a %a" t.id Position.pp
    t.pos Range.pp t.range (load t) Routing_table.pp t.left_table
    Routing_table.pp t.right_table
