module Bus = Baton_sim.Bus
module Metrics = Baton_sim.Metrics
module Rng = Baton_util.Rng
module Dyn_array = Baton_util.Dyn_array
module Sorted_store = Baton_util.Sorted_store

type interval = { lo : int; hi : int } (* half-open [lo, hi) *)

type node = {
  id : int;
  mutable parent : int option;
  children : int Dyn_array.t;
  mutable lower : int option;  (* in-order predecessor peer *)
  mutable upper : int option;  (* in-order successor peer *)
  mutable range : interval;  (* keys this peer manages directly *)
  mutable domain : interval;  (* interval handed to it at join; its
                                 subtree covered it at that time *)
  store : Sorted_store.t;
}

type t = {
  bus : Bus.t;
  peers : (int, node) Hashtbl.t;
  id_list : int Dyn_array.t;  (* dense id array for O(1) random pick *)
  id_index : (int, int) Hashtbl.t;
  rng : Rng.t;
  fanout : int;
  domain : interval;
  mutable root : int option;
  mutable next_id : int;
}

type join_stats = { peer : int; search_msgs : int; update_msgs : int }
type leave_stats = { search_msgs : int; update_msgs : int }

let k_search = "mtree.search"
let k_range = "mtree.range"
let k_join_search = "mtree.join.search"
let k_join_update = "mtree.join.update"
let k_leave_search = "mtree.leave.search"
let k_leave_update = "mtree.leave.update"
let k_insert = "mtree.insert"
let k_delete = "mtree.delete"

let create ?(seed = 42) ?(fanout = 4) ~domain_lo ~domain_hi () =
  if fanout < 1 then invalid_arg "Multiway.create: fanout must be >= 1";
  if domain_lo >= domain_hi then invalid_arg "Multiway.create: empty domain";
  {
    bus = Bus.create ();
    peers = Hashtbl.create 4096;
    id_list = Dyn_array.create ();
    id_index = Hashtbl.create 4096;
    rng = Rng.create seed;
    fanout;
    domain = { lo = domain_lo; hi = domain_hi };
    root = None;
    next_id = 0;
  }

let size t = Hashtbl.length t.peers
let metrics t = Bus.metrics t.bus
let bus t = t.bus
let peer t id = Hashtbl.find t.peers id

let peer_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.peers [] |> List.sort compare |> Array.of_list

let track t id =
  Hashtbl.replace t.id_index id (Dyn_array.length t.id_list);
  Dyn_array.push t.id_list id

let untrack t id =
  match Hashtbl.find_opt t.id_index id with
  | Some i ->
    let last = Dyn_array.pop t.id_list in
    if last <> id then begin
      Dyn_array.set t.id_list i last;
      Hashtbl.replace t.id_index last i
    end;
    Hashtbl.remove t.id_index id
  | None -> ()

let random_peer t =
  if Dyn_array.length t.id_list = 0 then
    invalid_arg "Multiway.random_peer: empty network";
  peer t (Dyn_array.get t.id_list (Rng.int t.rng (Dyn_array.length t.id_list)))

let send t ~src ~dst ~kind =
  Bus.send t.bus ~src ~dst ~kind;
  peer t dst

let contains i v = i.lo <= v && v < i.hi

let rec depth t (n : node) =
  match n.parent with None -> 0 | Some p -> 1 + depth t (peer t p)

let height t =
  Hashtbl.fold (fun _ n acc -> max acc (depth t n)) t.peers 0

(* Hop-by-hop routing: own range, then a child whose join-time domain
   covers the key, then the parent, then a neighbour walk in the key's
   direction (the recovery path for ranges that migrated on
   departures). *)
let route t ~(from : node) key ~kind =
  let budget = 64 + (8 * (1 + size t)) in
  (* [sticky] marks that the walk has switched to pure neighbour
     forwarding (a key outside every subtree interval, e.g. beyond the
     current key space): from then on the walk is monotone along the
     in-order chain and terminates at the responsible edge peer. *)
  let rec step (n : node) hops ~sticky =
    if hops > budget then failwith "Multiway.route: routing loop"
    else if contains n.range key then (n, hops)
    else if key < n.range.lo && Option.is_none n.lower then (n, hops)
      (* global leftmost: the key precedes the key space; expansion target *)
    else if key >= n.range.hi && Option.is_none n.upper then (n, hops)
    else if sticky then
      let towards = if key < n.range.lo then n.lower else n.upper in
      step (send t ~src:n.id ~dst:(Option.get towards) ~kind) (hops + 1) ~sticky
    else begin
      let child_covering =
        Dyn_array.fold_left
          (fun acc cid ->
            match acc with
            | Some _ -> acc
            | None ->
              let c = peer t cid in
              if contains c.domain key then Some c else None)
          None n.children
      in
      match child_covering with
      | Some c -> step (send t ~src:n.id ~dst:c.id ~kind) (hops + 1) ~sticky:false
      | None ->
        if (not (contains n.domain key)) && Option.is_some n.parent then
          step (send t ~src:n.id ~dst:(Option.get n.parent) ~kind) (hops + 1)
            ~sticky:false
        else begin
          (* Inside our own interval but owned elsewhere (a migrated
             range), or at the root: hop neighbours from here on. *)
          let towards = if key < n.range.lo then n.lower else n.upper in
          match towards with
          | Some next -> step (send t ~src:n.id ~dst:next ~kind) (hops + 1) ~sticky:true
          | None -> (n, hops) (* end of the key space: this peer expands *)
        end
    end
  in
  step from 0 ~sticky:false

let fresh_node t ~range ~domain =
  let id = t.next_id in
  t.next_id <- id + 1;
  let n =
    {
      id;
      parent = None;
      children = Dyn_array.create ();
      lower = None;
      upper = None;
      range;
      domain;
      store = Sorted_store.create ();
    }
  in
  Hashtbl.add t.peers id n;
  track t id;
  n

let split_point (n : node) =
  let keys = Sorted_store.to_list n.store in
  let len = List.length keys in
  let candidate =
    if len = 0 then n.range.lo + ((n.range.hi - n.range.lo) / 2)
    else List.nth keys (len / 2)
  in
  if candidate > n.range.lo && candidate < n.range.hi then candidate
  else n.range.lo + ((n.range.hi - n.range.lo) / 2)

(* Accept a new child: it takes the upper half of the acceptor's range
   and slots in as its in-order successor. *)
let accept t (v : node) =
  let m = split_point v in
  let child_range = { lo = m; hi = v.range.hi } in
  let child = fresh_node t ~range:child_range ~domain:child_range in
  v.range <- { v.range with hi = m };
  let moved = Sorted_store.split_at_or_above v.store m in
  Sorted_store.absorb child.store moved;
  child.parent <- Some v.id;
  Dyn_array.push v.children child.id;
  (* Adjacency: v < child < v's old successor. *)
  child.lower <- Some v.id;
  child.upper <- v.upper;
  (match v.upper with
  | Some w ->
    let w = send t ~src:child.id ~dst:w ~kind:k_join_update in
    w.lower <- Some child.id
  | None -> ());
  v.upper <- Some child.id;
  ignore (send t ~src:v.id ~dst:child.id ~kind:k_join_update);
  child

let join t =
  match t.root with
  | None ->
    let root = fresh_node t ~range:t.domain ~domain:t.domain in
    t.root <- Some root.id;
    { peer = root.id; search_msgs = 0; update_msgs = 0 }
  | Some _ ->
    let via = random_peer t in
    let m = metrics t in
    let cp = Metrics.checkpoint m in
    (* Walk down until a node with a spare child slot accepts. *)
    let rec place (n : node) =
      if Dyn_array.length n.children < t.fanout then n
      else
        let cid = Dyn_array.get n.children (Rng.int t.rng (Dyn_array.length n.children)) in
        place (send t ~src:n.id ~dst:cid ~kind:k_join_search)
    in
    let acceptor = place via in
    let search_msgs = Metrics.since m cp in
    let cp2 = Metrics.checkpoint m in
    let child = accept t acceptor in
    { peer = child.id; search_msgs; update_msgs = Metrics.since m cp2 }

(* When a range [a, b) migrates to a peer outside the subtrees that
   used to cover it, the receiving side's ancestors must widen their
   subtree intervals. The absorbed range always sits at the edge of
   each such ancestor's interval, so the update is a parent walk that
   stops at the first common ancestor — one message per level. *)
let extend_domains_hi t (start : node) ~edge ~new_hi =
  let rec climb (n : node) =
    if n.domain.hi = edge then begin
      n.domain <- { n.domain with hi = new_hi };
      match n.parent with
      | Some p -> climb (send t ~src:n.id ~dst:p ~kind:k_leave_update)
      | None -> ()
    end
  in
  climb start

let extend_domains_lo t (start : node) ~edge ~new_lo =
  let rec climb (n : node) =
    if n.domain.lo = edge then begin
      n.domain <- { n.domain with lo = new_lo };
      match n.parent with
      | Some p -> climb (send t ~src:n.id ~dst:p ~kind:k_leave_update)
      | None -> ()
    end
  in
  climb start

(* A leaf hands its range and content to an in-order neighbour and
   unlinks itself. *)
let remove_leaf t (x : node) ~kind =
  assert (Dyn_array.is_empty x.children);
  (match (x.lower, x.upper) with
  | Some l, _ ->
    let l_node = send t ~src:x.id ~dst:l ~kind in
    Sorted_store.absorb l_node.store x.store;
    l_node.range <- { l_node.range with hi = x.range.hi };
    extend_domains_hi t l_node ~edge:x.range.lo ~new_hi:x.range.hi
  | None, Some u ->
    let u_node = send t ~src:x.id ~dst:u ~kind in
    Sorted_store.absorb u_node.store x.store;
    u_node.range <- { u_node.range with lo = x.range.lo };
    extend_domains_lo t u_node ~edge:x.range.hi ~new_lo:x.range.lo
  | None, None -> ());
  (* Splice neighbour links. *)
  (match x.lower with
  | Some l -> (send t ~src:x.id ~dst:l ~kind).upper <- x.upper
  | None -> ());
  (match x.upper with
  | Some u -> (send t ~src:x.id ~dst:u ~kind).lower <- x.lower
  | None -> ());
  (* Detach from the parent. *)
  (match x.parent with
  | Some p ->
    let p_node = send t ~src:x.id ~dst:p ~kind in
    let rec find i =
      if i >= Dyn_array.length p_node.children then ()
      else if Dyn_array.get p_node.children i = x.id then
        ignore (Dyn_array.remove p_node.children i)
      else find (i + 1)
    in
    find 0
  | None -> t.root <- None);
  Hashtbl.remove t.peers x.id;
  untrack t x.id

(* Replacement search for an internal node: consult every child at each
   level (the cost the paper attributes to [10]) and descend until a
   leaf is found. *)
let find_replacement t (x : node) =
  let rec descend (n : node) =
    if Dyn_array.is_empty n.children then n
    else begin
      let best = ref None in
      Dyn_array.iter
        (fun cid ->
          let c = send t ~src:n.id ~dst:cid ~kind:k_leave_search in
          match !best with
          | None -> best := Some c
          | Some b ->
            if Dyn_array.length c.children <= Dyn_array.length b.children then
              best := Some c)
        n.children;
      descend (Option.get !best)
    end
  in
  descend x

let leave t id =
  let x = peer t id in
  let m = metrics t in
  if Dyn_array.is_empty x.children then begin
    let cp = Metrics.checkpoint m in
    remove_leaf t x ~kind:k_leave_update;
    { search_msgs = 0; update_msgs = Metrics.since m cp }
  end
  else begin
    let cp = Metrics.checkpoint m in
    let r = find_replacement t x in
    let search_msgs = Metrics.since m cp in
    let cp2 = Metrics.checkpoint m in
    remove_leaf t r ~kind:k_leave_update;
    (* r assumes x's identity in the tree: links, range, data, domain.
       remove_leaf dropped r from the registry; it rejoins at x's
       place. *)
    Hashtbl.add t.peers r.id r;
    track t r.id;
    ignore (send t ~src:x.id ~dst:r.id ~kind:k_leave_update);
    Sorted_store.absorb r.store x.store;
    r.range <- x.range;
    r.domain <- x.domain;
    r.parent <- x.parent;
    Dyn_array.iter (fun cid -> Dyn_array.push r.children cid) x.children;
    r.lower <- x.lower;
    r.upper <- x.upper;
    (* Everyone linking to x repoints at r, one message each. *)
    (match x.parent with
    | Some p ->
      let p_node = send t ~src:r.id ~dst:p ~kind:k_leave_update in
      Dyn_array.iteri
        (fun i cid -> if cid = x.id then Dyn_array.set p_node.children i r.id)
        p_node.children
    | None -> t.root <- Some r.id);
    Dyn_array.iter
      (fun cid -> (send t ~src:r.id ~dst:cid ~kind:k_leave_update).parent <- Some r.id)
      r.children;
    (match r.lower with
    | Some l -> (send t ~src:r.id ~dst:l ~kind:k_leave_update).upper <- Some r.id
    | None -> ());
    (match r.upper with
    | Some u -> (send t ~src:r.id ~dst:u ~kind:k_leave_update).lower <- Some r.id
    | None -> ());
    Hashtbl.remove t.peers x.id;
    untrack t x.id;
    { search_msgs; update_msgs = Metrics.since m cp2 }
  end

let insert t key =
  let from = random_peer t in
  let n, hops = route t ~from key ~kind:k_insert in
  if not (contains n.range key) then begin
    (* End of the key space: expand range and subtree intervals. *)
    if key < n.range.lo then begin
      let edge = n.range.lo in
      n.range <- { n.range with lo = key };
      extend_domains_lo t n ~edge ~new_lo:key
    end
    else begin
      let edge = n.range.hi in
      n.range <- { n.range with hi = key + 1 };
      extend_domains_hi t n ~edge ~new_hi:(key + 1)
    end
  end;
  Sorted_store.insert n.store key;
  hops

let delete t key =
  let from = random_peer t in
  let n, hops = route t ~from key ~kind:k_delete in
  (Sorted_store.remove n.store key, hops)

let lookup t key =
  let from = random_peer t in
  let n, hops = route t ~from key ~kind:k_search in
  (Sorted_store.mem n.store key, hops)

let range_query t ~lo ~hi =
  if lo > hi then invalid_arg "Multiway.range_query: lo > hi";
  let from = random_peer t in
  let n, hops = route t ~from lo ~kind:k_range in
  let keys = ref (Sorted_store.keys_in n.store ~lo ~hi) in
  let extra = ref 0 in
  let rec sweep (n : node) =
    if n.range.hi <= hi then
      match n.upper with
      | Some u ->
        let next = send t ~src:n.id ~dst:u ~kind:k_range in
        incr extra;
        keys := !keys @ Sorted_store.keys_in next.store ~lo ~hi;
        sweep next
      | None -> ()
  in
  sweep n;
  (!keys, hops + !extra)

let node_load t id = Sorted_store.length (peer t id).store

let check t =
  let fail fmt = Format.kasprintf failwith fmt in
  match t.root with
  | None -> if size t <> 0 then fail "multiway: no root but %d peers" (size t)
  | Some root_id ->
    (* Every peer reaches the root through parents. *)
    Hashtbl.iter
      (fun _ (n : node) ->
        let rec climb (m : node) steps =
          if steps > size t then fail "multiway: parent cycle at peer %d" n.id
          else
            match m.parent with
            | None ->
              if m.id <> root_id then fail "multiway: peer %d climbs to non-root %d" n.id m.id
            | Some p -> climb (peer t p) (steps + 1)
        in
        climb n 0;
        Dyn_array.iter
          (fun cid ->
            match Hashtbl.find_opt t.peers cid with
            | None -> fail "multiway: peer %d lists dead child %d" n.id cid
            | Some c ->
              if c.parent <> Some n.id then
                fail "multiway: child %d of %d has parent %s" cid n.id
                  (match c.parent with Some p -> string_of_int p | None -> "none"))
          n.children;
        Baton_util.Sorted_store.to_list n.store
        |> List.iter (fun k ->
               if not (contains n.range k) then
                 fail "multiway: key %d outside range [%d,%d) at peer %d" k n.range.lo
                   n.range.hi n.id))
      t.peers;
    (* The in-order chain tiles the key space. *)
    let leftmost =
      Hashtbl.fold
        (fun _ (n : node) acc ->
          match acc with
          | None -> Some n
          | Some (b : node) -> if n.range.lo < b.range.lo then Some n else acc)
        t.peers None
    in
    (match leftmost with
    | None -> ()
    | Some first ->
      let rec walk (n : node) seen =
        if seen > size t then fail "multiway: neighbour chain too long";
        (match n.upper with
        | Some u ->
          let next = peer t u in
          if n.range.hi <> next.range.lo then
            fail "multiway: ranges [%d,%d) and [%d,%d) do not tile" n.range.lo
              n.range.hi next.range.lo next.range.hi;
          walk next (seen + 1)
        | None ->
          if seen + 1 <> size t then
            fail "multiway: neighbour chain covers %d of %d peers" (seen + 1) (size t))
      in
      walk first 0)
