module Bus = Baton_sim.Bus
module Metrics = Baton_sim.Metrics
module Rng = Baton_util.Rng
module Dyn_array = Baton_util.Dyn_array
module Sorted_store = Baton_util.Sorted_store

(* Membership vectors carry one random bit per level. 62 bits keeps the
   chance of two peers sharing a whole vector negligible at any
   simulated size, so list heights stay O(log n). *)
let max_levels = 62

type node = {
  id : int;
  key : int;  (* peer key: its position in the level-0 order *)
  mv : int;  (* membership vector; bit [l] selects the level-(l+1) list *)
  left : int option array;  (* neighbour ids, indexed by level *)
  right : int option array;
  mutable height : int;  (* levels at which this node has a neighbour *)
  store : Sorted_store.t;
}

type t = {
  bus : Bus.t;
  peers : (int, node) Hashtbl.t;  (* live peers *)
  dead : (int, node) Hashtbl.t;  (* every crashed peer, kept: chains of
                                    links may still run through them *)
  spliced : (int, unit) Hashtbl.t;  (* corpses already repaired around *)
  used_keys : (int, unit) Hashtbl.t;
  id_list : int Dyn_array.t;  (* dense live-id array for O(1) random pick *)
  id_index : (int, int) Hashtbl.t;
  rng : Rng.t;
  domain_lo : int;
  domain_hi : int;
  mutable next_id : int;
}

type join_stats = { peer : int; search_msgs : int; update_msgs : int }
type leave_stats = { search_msgs : int; update_msgs : int }

let k_search = "skip.search"
let k_range = "skip.range"
let k_insert = "skip.insert"
let k_delete = "skip.delete"
let k_join_search = "skip.join.search"
let k_join_update = "skip.join.update"
let k_leave_update = "skip.leave.update"
let k_repair = "skip.repair"

let create ?(seed = 42) ~domain_lo ~domain_hi () =
  if domain_lo >= domain_hi then invalid_arg "Skip_graph.create: empty domain";
  {
    bus = Bus.create ();
    peers = Hashtbl.create 4096;
    dead = Hashtbl.create 64;
    spliced = Hashtbl.create 64;
    used_keys = Hashtbl.create 4096;
    id_list = Dyn_array.create ();
    id_index = Hashtbl.create 4096;
    rng = Rng.create seed;
    domain_lo;
    domain_hi;
    next_id = 0;
  }

let size t = Hashtbl.length t.peers
let metrics t = Bus.metrics t.bus
let bus t = t.bus
let peer t id = Hashtbl.find t.peers id

(* A link may still point at a crashed peer. Its key is part of the
   link state the live side keeps locally, so peeking it costs no
   message — only hopping to the peer does. *)
let node_of t id =
  match Hashtbl.find_opt t.peers id with
  | Some n -> n
  | None -> Hashtbl.find t.dead id

let node_key t id = (node_of t id).key

let peer_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.peers []
  |> List.sort compare |> Array.of_list

let peer_ids_by_key t =
  Hashtbl.fold (fun _ (n : node) acc -> n :: acc) t.peers []
  |> List.sort (fun (a : node) (b : node) -> compare a.key b.key)
  |> List.map (fun (n : node) -> n.id)
  |> Array.of_list

let levels t = Hashtbl.fold (fun _ (n : node) acc -> max acc n.height) t.peers 0

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
    invalid_arg "Skip_graph.random_peer: empty network";
  peer t (Dyn_array.get t.id_list (Rng.int t.rng (Dyn_array.length t.id_list)))

let send t ~src ~dst ~kind =
  Bus.send t.bus ~src ~dst ~kind;
  peer t dst

(* One repair-protocol message. The relink content is retransmitted
   until acknowledged, so the splice always lands; a loss or partition
   window only costs the (counted) transmission. *)
let send_repair t ~src ~dst =
  match Bus.send t.bus ~src ~dst ~kind:k_repair with
  | () -> ()
  | exception Bus.Timeout _ -> ()

(* Two nodes share the level-l list iff their membership vectors agree
   on the first l bits. *)
let prefix_mask l = (1 lsl l) - 1
let same_prefix l (a : node) (b : node) = (a.mv lxor b.mv) land prefix_mask l = 0

let fresh_key t =
  let rec draw () =
    let k = Rng.int_in_range t.rng ~lo:t.domain_lo ~hi:(t.domain_hi - 1) in
    if Hashtbl.mem t.used_keys k then draw ()
    else begin
      Hashtbl.replace t.used_keys k ();
      k
    end
  in
  draw ()

let fresh_mv t = Int64.to_int (Rng.int64 t.rng) land max_int

let register t ~key ~mv =
  let id = t.next_id in
  t.next_id <- id + 1;
  let n =
    {
      id;
      key;
      mv;
      left = Array.make (max_levels + 1) None;
      right = Array.make (max_levels + 1) None;
      height = 0;
      store = Sorted_store.create ();
    }
  in
  Hashtbl.add t.peers id n;
  track t id;
  n

let shrink_height (n : node) =
  while
    n.height > 0
    && n.left.(n.height - 1) = None
    && n.right.(n.height - 1) = None
  do
    n.height <- n.height - 1
  done

(* Walk a link chain through departed peers (corpses and graceful
   leavers, both retained in [t.dead]) to the nearest live node. *)
let rec live_via t step id =
  match Hashtbl.find_opt t.peers id with
  | Some n -> Some n
  | None -> Option.bind (step (Hashtbl.find t.dead id)) (live_via t step)

(* Splice a crashed peer out of every list it was linked into,
   reconnecting the nearest live neighbours on each side (link chains
   may run through other corpses after a correlated burst). Lazy: runs
   when routing first trips over the corpse — exactly how the paper's
   peers learn of a departure, by finding the address unreachable. *)
let repair t dead_id =
  match Hashtbl.find_opt t.dead dead_id with
  | None -> ()
  | Some _ when Hashtbl.mem t.spliced dead_id -> ()
  | Some d ->
    let touched = ref [] in
    for l = 0 to max 0 (d.height - 1) do
      (* The corpse's frozen chain only {e locates} the live endpoints;
         each endpoint is then re-linked from its own current link
         state. Splicing the frozen endpoints directly to each other
         would clobber links made after the crash (a peer that joined
         beside an endpoint while the corpse lay unrepaired). *)
      let fix_right (a : node) =
        match
          Option.bind a.right.(l) (live_via t (fun (c : node) -> c.right.(l)))
        with
        | Some b ->
          if a.right.(l) <> Some b.id then begin
            send_repair t ~src:a.id ~dst:b.id;
            send_repair t ~src:b.id ~dst:a.id;
            a.right.(l) <- Some b.id;
            b.left.(l) <- Some a.id;
            touched := b :: !touched
          end
        | None -> a.right.(l) <- None
      and fix_left (b : node) =
        match
          Option.bind b.left.(l) (live_via t (fun (c : node) -> c.left.(l)))
        with
        | Some a ->
          if b.left.(l) <> Some a.id then begin
            send_repair t ~src:b.id ~dst:a.id;
            send_repair t ~src:a.id ~dst:b.id;
            b.left.(l) <- Some a.id;
            a.right.(l) <- Some b.id;
            touched := a :: !touched
          end
        | None -> b.left.(l) <- None
      in
      (match
         Option.bind d.left.(l) (live_via t (fun (c : node) -> c.left.(l)))
       with
      | Some a ->
        fix_right a;
        touched := a :: !touched
      | None -> ());
      match
        Option.bind d.right.(l) (live_via t (fun (c : node) -> c.right.(l)))
      with
      | Some b ->
        fix_left b;
        touched := b :: !touched
      | None -> ()
    done;
    List.iter shrink_height !touched;
    Hashtbl.replace t.spliced dead_id ()

(* Find the owner of [key] — the live peer with the greatest peer key
   <= [key], or the global leftmost when every peer key exceeds it.
   Classic skip-graph descent: skim sideways at the highest level that
   does not overshoot, then drop a level. Neighbour keys are link state
   held locally; only hops pay a message. *)
let raw_search t (start : node) key ~kind =
  let hops = ref 0 in
  let hop src dst =
    Bus.send t.bus ~src ~dst ~kind;
    incr hops;
    peer t dst
  in
  let rec go (n : node) l =
    if key >= n.key then
      match n.right.(l) with
      | Some r when node_key t r <= key -> go (hop n.id r) l
      | _ -> if l = 0 then n else go n (l - 1)
    else
      match n.left.(l) with
      | Some w when node_key t w > key -> go (hop n.id w) l
      | Some w when l = 0 -> hop n.id w (* immediate predecessor: the owner *)
      | Some _ -> go n (l - 1)
      | None -> if l = 0 then n (* global leftmost *) else go n (l - 1)
  in
  let n = go start (max 0 (start.height - 1)) in
  (n, !hops)

(* Search with failure discovery: a hop into a crashed peer raises
   [Bus.Unreachable]; the survivor splices the corpse out (paid repair
   traffic) and the operation restarts from a random live peer. Each
   discovery removes one corpse, so the retry loop terminates. *)
let search t ~(from : node) key ~kind =
  let hops = ref 0 in
  let rec attempt (start : node) budget =
    match raw_search t start key ~kind with
    | n, h ->
      hops := !hops + h;
      n
    | exception Bus.Unreachable dead_id ->
      if budget <= 0 then failwith "Skip_graph.search: repair budget exhausted";
      (* The failed hop was transmitted and counted. *)
      incr hops;
      repair t dead_id;
      attempt (random_peer t) (budget - 1)
  in
  let n =
    attempt from (Hashtbl.length t.dead - Hashtbl.length t.spliced + 1)
  in
  (n, !hops)

let lookup t key =
  let from = random_peer t in
  let n, hops = search t ~from key ~kind:k_search in
  (Sorted_store.mem n.store key, hops)

let insert t key =
  let from = random_peer t in
  let n, hops = search t ~from key ~kind:k_insert in
  Sorted_store.insert n.store key;
  hops

let delete t key =
  let from = random_peer t in
  let n, hops = search t ~from key ~kind:k_delete in
  (Sorted_store.remove n.store key, hops)

let range_query t ~lo ~hi =
  if lo > hi then invalid_arg "Skip_graph.range_query: lo > hi";
  let from = random_peer t in
  let n, hops = search t ~from lo ~kind:k_range in
  let keys = ref (Sorted_store.keys_in n.store ~lo ~hi) in
  let extra = ref 0 in
  (* Native range sweep: the level-0 list is the key order, so the
     answer is a rightward neighbour walk — one message per peer whose
     range intersects the interval. A corpse on the way is spliced out
     and the sweep resumes at the live survivor. *)
  let rec sweep (n : node) =
    match n.right.(0) with
    | Some r when node_key t r <= hi -> (
      match send t ~src:n.id ~dst:r ~kind:k_range with
      | next ->
        incr extra;
        keys := !keys @ Sorted_store.keys_in next.store ~lo ~hi;
        sweep next
      | exception Bus.Unreachable dead_id ->
        incr extra;
        repair t dead_id;
        sweep n)
    | _ -> ()
  in
  sweep n;
  (!keys, hops + !extra)

(* Amortized batch placement: locate the owner of the smallest key,
   then distribute the sorted batch along the level-0 list in one
   rightward pass. *)
let bulk_insert t keys =
  match List.sort compare keys with
  | [] -> 0
  | k0 :: _ as sorted ->
    let from = random_peer t in
    let owner, hops = search t ~from k0 ~kind:k_insert in
    let cur = ref owner in
    let extra = ref 0 in
    List.iter
      (fun k ->
        let rec advance () =
          match !cur.right.(0) with
          | Some r when node_key t r <= k -> (
            match send t ~src:!cur.id ~dst:r ~kind:k_insert with
            | next ->
              cur := next;
              incr extra;
              advance ()
            | exception Bus.Unreachable dead_id ->
              incr extra;
              repair t dead_id;
              advance ())
          | _ -> ()
        in
        advance ();
        Sorted_store.insert !cur.store k)
      sorted;
    hops + !extra

let join t =
  if size t = 0 then begin
    let u = register t ~key:(fresh_key t) ~mv:(fresh_mv t) in
    { peer = u.id; search_msgs = 0; update_msgs = 0 }
  end
  else begin
    let key = fresh_key t in
    let mv = fresh_mv t in
    let via = random_peer t in
    let m = metrics t in
    let cp = Metrics.checkpoint m in
    (* Phase 1 — locate the new key's level-0 position. *)
    let p, _ = search t ~from:via key ~kind:k_join_search in
    let search_msgs = Metrics.since m cp in
    let cp2 = Metrics.checkpoint m in
    let u = register t ~key ~mv in
    (* Phase 2 — splice into level 0. The owner is the predecessor,
       except when the new key precedes every existing one: then the
       search lands on the old leftmost, which becomes the successor.
       The predecessor's right link may run into a corpse: the failed
       notification doubles as discovery — repair and re-read. This
       probe is also the successor's splice notification. *)
    let rec live_right (a : node) =
      match a.right.(0) with
      | None -> None
      | Some r -> (
        match send t ~src:u.id ~dst:r ~kind:k_join_update with
        | b -> Some b
        | exception Bus.Unreachable dead_id ->
          repair t dead_id;
          live_right a)
    in
    let pred, succ =
      if p.key < u.key then (Some p, live_right p) else (None, Some p)
    in
    (match pred with
    | Some (a : node) ->
      ignore (send t ~src:u.id ~dst:a.id ~kind:k_join_update);
      a.right.(0) <- Some u.id;
      u.left.(0) <- Some a.id
    | None -> ());
    (match succ with
    | Some (b : node) ->
      if pred = None then
        ignore (send t ~src:u.id ~dst:b.id ~kind:k_join_update);
      b.left.(0) <- Some u.id;
      u.right.(0) <- Some b.id
    | None -> ());
    u.height <- 1;
    (* Phase 3 — build the upper lists: at each level the neighbours
       are found by walking the level below until a peer shares one
       more membership-vector bit (expected O(1) steps per level). *)
    let l = ref 1 in
    let continue_up = ref true in
    while !continue_up && !l <= max_levels do
      let lv = !l in
      (* A corpse in the scan path is spliced out and the side rescanned
         from the (now repaired) local link: giving up instead would
         leave [u] disconnected from a prefix class it belongs to. Each
         retry consumes one corpse, so the rescan loop terminates. *)
      let scan_side first step =
        let rec scan id =
          match send t ~src:u.id ~dst:id ~kind:k_join_search with
          | w ->
            if same_prefix lv w u then Some w
            else (match step w with Some next -> scan next | None -> None)
          | exception Bus.Unreachable dead_id ->
            repair t dead_id;
            restart ()
        and restart () = Option.bind (first ()) scan in
        restart ()
      in
      let left_match =
        scan_side (fun () -> u.left.(lv - 1)) (fun (w : node) -> w.left.(lv - 1))
      in
      let right_match =
        scan_side
          (fun () -> u.right.(lv - 1))
          (fun (w : node) -> w.right.(lv - 1))
      in
      match (left_match, right_match) with
      | None, None -> continue_up := false
      | _ ->
        (match left_match with
        | Some (a : node) ->
          ignore (send t ~src:u.id ~dst:a.id ~kind:k_join_update);
          a.right.(lv) <- Some u.id;
          u.left.(lv) <- Some a.id;
          if a.height <= lv then a.height <- lv + 1
        | None -> ());
        (match right_match with
        | Some (b : node) ->
          ignore (send t ~src:u.id ~dst:b.id ~kind:k_join_update);
          b.left.(lv) <- Some u.id;
          u.right.(lv) <- Some b.id;
          if b.height <= lv then b.height <- lv + 1
        | None -> ());
        u.height <- lv + 1;
        incr l
    done;
    (* Phase 4 — data handoff along the level-0 splice. *)
    (match (pred, succ) with
    | Some (a : node), _ ->
      let moved = Sorted_store.split_at_or_above a.store u.key in
      Sorted_store.absorb u.store moved
    | None, Some (b : node) ->
      (* New global leftmost: it inherits the catch-all for keys below
         the old leftmost's own key. *)
      let moved = Sorted_store.split_below b.store b.key in
      Sorted_store.absorb u.store moved
    | None, None -> ());
    { peer = u.id; search_msgs; update_msgs = Metrics.since m cp2 }
  end

let leave t id =
  let x = peer t id in
  let m = metrics t in
  let cp = Metrics.checkpoint m in
  let touched = ref [] in
  (* Neighbours are the nearest {e live} peers on each side — an
     adjacent unrepaired corpse must be walked through, not treated as
     the end of the list (severing it would orphan everyone beyond). *)
  for l = max 0 (x.height - 1) downto 0 do
    let lv = Option.bind x.left.(l) (live_via t (fun (c : node) -> c.left.(l)))
    and rv =
      Option.bind x.right.(l) (live_via t (fun (c : node) -> c.right.(l)))
    in
    (match lv with
    | Some (a : node) ->
      ignore (send t ~src:x.id ~dst:a.id ~kind:k_leave_update);
      a.right.(l) <- Option.map (fun (b : node) -> b.id) rv;
      touched := a :: !touched
    | None -> ());
    match rv with
    | Some (b : node) ->
      ignore (send t ~src:x.id ~dst:b.id ~kind:k_leave_update);
      b.left.(l) <- Option.map (fun (a : node) -> a.id) lv;
      touched := b :: !touched
    | None -> ()
  done;
  (* Data handoff: the predecessor absorbs the departing range; a
     departing leftmost hands everything to the new leftmost, which
     inherits the catch-all role. *)
  (match
     ( Option.bind x.left.(0) (live_via t (fun (c : node) -> c.left.(0))),
       Option.bind x.right.(0) (live_via t (fun (c : node) -> c.right.(0))) )
   with
  | Some a, _ -> Sorted_store.absorb a.store x.store
  | None, Some b -> Sorted_store.absorb b.store x.store
  | None, None -> ());
  List.iter shrink_height !touched;
  Hashtbl.remove t.peers x.id;
  (* Keep the departed node (links frozen at departure) so chains from
     unrepaired corpses still resolve through it; it needs no repair of
     its own — the splice above already happened — so it is born
     spliced. *)
  Hashtbl.add t.dead x.id x;
  Hashtbl.replace t.spliced x.id ();
  Bus.fail t.bus x.id;
  untrack t x.id;
  { search_msgs = 0; update_msgs = Metrics.since m cp }

let crash t id =
  let x = peer t id in
  Bus.fail t.bus id;
  Hashtbl.remove t.peers id;
  Hashtbl.add t.dead id x;
  untrack t id;
  Sorted_store.to_list x.store

let check t =
  let fail fmt = Format.kasprintf failwith fmt in
  if size t = 0 then ()
  else begin
    let nodes =
      Hashtbl.fold (fun _ n acc -> n :: acc) t.peers []
      |> List.sort (fun (a : node) (b : node) -> compare a.key b.key)
    in
    (* Links are audited {e through} corpses: until lazy repair has
       tripped over a crashed peer, live links may still run into it —
       the invariant is that following the chain reaches the correct
       live neighbour. With no unspliced corpse this is plain link
       equality. *)
    let resolve step link =
      Option.map
        (fun (n : node) -> n.id)
        (Option.bind link (live_via t step))
    in
    let right_of l (n : node) =
      resolve (fun (c : node) -> c.right.(l)) n.right.(l)
    in
    let left_of l (n : node) = resolve (fun (c : node) -> c.left.(l)) n.left.(l) in
    (* Level 0: a doubly-linked list in strict key order covering every
       live peer. *)
    let rec chain prev = function
      | [] -> ()
      | (n : node) :: rest ->
        (match prev with
        | None ->
          if left_of 0 n <> None then
            fail "skip_graph: leftmost peer %d has a left link" n.id
        | Some (p : node) ->
          if p.key >= n.key then
            fail "skip_graph: keys %d and %d out of order" p.key n.key;
          if right_of 0 p <> Some n.id then
            fail "skip_graph: level-0 gap between peers %d and %d" p.id n.id;
          if left_of 0 n <> Some p.id then
            fail "skip_graph: level-0 back link of peer %d broken" n.id);
        if rest = [] && right_of 0 n <> None then
          fail "skip_graph: rightmost peer %d has a right link" n.id;
        chain (Some n) rest
    in
    chain None nodes;
    (* Upper levels: within each membership-vector prefix class, the
       key-ordered members must form exactly the level-l list. *)
    let top = List.fold_left (fun acc (n : node) -> max acc n.height) 0 nodes in
    for l = 1 to top do
      let groups = Hashtbl.create 64 in
      List.iter
        (fun (n : node) ->
          let p = n.mv land prefix_mask l in
          Hashtbl.replace groups p
            (n :: Option.value ~default:[] (Hashtbl.find_opt groups p)))
        nodes;
      Hashtbl.iter
        (fun _ members ->
          match List.rev members (* back to key order *) with
          | [] -> ()
          | [ (n : node) ] ->
            if left_of l n <> None || right_of l n <> None then
              fail
                "skip_graph: peer %d linked at level %d but alone in its list"
                n.id l
          | members ->
            let rec walk prev = function
              | [] -> ()
              | (n : node) :: rest ->
                if n.height <= l then
                  fail "skip_graph: peer %d in a level-%d list but height %d"
                    n.id l n.height;
                (match prev with
                | None ->
                  if left_of l n <> None then
                    fail
                      "skip_graph: first peer %d of a level-%d list has a \
                       left link"
                      n.id l
                | Some (p : node) ->
                  if right_of l p <> Some n.id then
                    fail "skip_graph: level-%d gap between peers %d and %d" l
                      p.id n.id;
                  if left_of l n <> Some p.id then
                    fail "skip_graph: level-%d back link of peer %d broken" l
                      n.id);
                if rest = [] && right_of l n <> None then
                  fail
                    "skip_graph: last peer %d of a level-%d list has a right \
                     link"
                    n.id l;
                walk (Some n) rest
            in
            walk None members)
        groups
    done;
    (* Heights are tight: no links above a node's height. *)
    List.iter
      (fun (n : node) ->
        for l = n.height to max_levels do
          if n.left.(l) <> None || n.right.(l) <> None then
            fail "skip_graph: peer %d has a level-%d link above height %d" n.id
              l n.height
        done)
      nodes;
    (* Data placement: every stored key belongs to its holder's range —
       [key, succ.key), with the leftmost also holding everything below
       its own key. *)
    let rec placement = function
      | [] -> ()
      | (n : node) :: rest ->
        let hi = match rest with (s : node) :: _ -> Some s.key | [] -> None in
        let leftmost = left_of 0 n = None in
        Sorted_store.to_list n.store
        |> List.iter (fun k ->
               if (not leftmost) && k < n.key then
                 fail "skip_graph: key %d below peer %d's range start %d" k
                   n.id n.key;
               match hi with
               | Some h when k >= h ->
                 fail
                   "skip_graph: key %d at peer %d reaches into successor \
                    range %d"
                   k n.id h
               | _ -> ());
        placement rest
    in
    placement nodes
  end
