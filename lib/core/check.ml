let fail fmt = Format.kasprintf failwith fmt

let tree_shape net =
  if Net.size net > 0 && Option.is_none (Net.root net) then
    fail "tree_shape: non-empty network without a root";
  List.iter
    (fun (n : Node.t) ->
      if
        (not (Position.is_root n.Node.pos))
        && not (Wiring.occupied net (Position.parent n.Node.pos))
      then fail "tree_shape: node %d at %a has no parent" n.Node.id Position.pp n.Node.pos)
    (Net.peers net)

let balanced_scan net =
  List.iter
    (fun (n : Node.t) ->
      let hl = Wiring.subtree_height net (Position.left_child n.Node.pos) in
      let hr = Wiring.subtree_height net (Position.right_child n.Node.pos) in
      if abs (hl - hr) > 1 then
        fail "balanced: node %d at %a has subtree heights %d and %d" n.Node.id
          Position.pp n.Node.pos hl hr)
    (Net.peers net)

(* One pass from the root: the height of the occupied tree, computing
   each subtree height once and raising [Exit] at the first unbalanced
   position. [visit] sees every peer reached, in in-order order. *)
let root_walk net ~visit =
  let rec height pos =
    match Wiring.occupant net pos with
    | None -> -1
    | Some n ->
      let hl = height (Position.left_child pos) in
      visit n;
      let hr = height (Position.right_child pos) in
      if abs (hl - hr) > 1 then raise Exit;
      1 + max hl hr
  in
  height Position.root

(* The root walk settles the healthy case alone: every registered peer
   reached (the position map holds each exactly once) and no
   imbalance. Anything else falls back to [balanced_scan], so a failure
   names the same peer with the same text. *)
let balanced net =
  let reached = ref 0 in
  let healthy =
    match root_walk net ~visit:(fun _ -> incr reached) with
    | _ -> !reached = Net.registered net
    | exception Exit -> false
  in
  if not healthy then balanced_scan net

let height net =
  match Net.root net with
  | None -> -1
  | Some root -> Wiring.subtree_height net root.Node.pos

let max_height n = (1.44 *. (log (float_of_int n) /. log 2.)) +. 1.

let height_bound net =
  let n = Net.size net in
  if n > 1 then begin
    let h = height net in
    let bound = max_height n in
    if float_of_int h > bound then
      fail "height_bound: height %d exceeds 1.44 log2 %d + 1 = %.2f" h n bound
  end

let theorem1 net =
  List.iter
    (fun (n : Node.t) ->
      let pos = n.Node.pos in
      let has_child =
        Wiring.occupied net (Position.left_child pos)
        || Wiring.occupied net (Position.right_child pos)
      in
      if has_child && not (Wiring.tables_full_at net pos) then
        fail "theorem1: node %d at %a has a child but incomplete tables" n.Node.id
          Position.pp pos)
    (Net.peers net)

let theorem2 net =
  (* Structural statement over positions: if positions p and q at the
     same level are a power of two apart and both occupied, then their
     parents are either equal or also a power of two apart — verified
     by Theorem 2's arithmetic; here we check the stronger operational
     fact that the parent positions are both occupied (so the links can
     exist). *)
  List.iter
    (fun (n : Node.t) ->
      let pos = n.Node.pos in
      if not (Position.is_root pos) then
        List.iter
          (fun side ->
            let size = Position.table_size pos side in
            for j = 0 to size - 1 do
              match Position.neighbor pos side j with
              | Some q when Wiring.occupied net q ->
                let pp_ = Position.parent pos and pq = Position.parent q in
                if not (Position.equal pp_ pq) then begin
                  if not (Wiring.occupied net pq) then
                    fail
                      "theorem2: neighbour %a of %a occupied but parent %a empty"
                      Position.pp q Position.pp pos Position.pp pq;
                  let d = abs (pp_.Position.number - pq.Position.number) in
                  if d land (d - 1) <> 0 then
                    fail "theorem2: parents %a and %a not a power of two apart"
                      Position.pp pp_ Position.pp pq
                end
              | Some _ | None -> ()
            done)
          [ `Left; `Right ])
    (Net.peers net)

(* [what] names the link in a failure message. It is a thunk so that a
   passing check — every check of every link on a healthy network, each
   {!Monitor} tick — formats nothing. [expected] is the position the
   link should point at with its occupant, looked up once; [None] when
   no link should exist. *)
let check_link ~strict ~(what : unit -> string) ~(owner : Node.t)
    (link : Link.info option) expected =
  match (link, expected) with
  | None, None -> ()
  | Some l, None ->
    fail "links: node %d has %s to %a but none should exist" owner.Node.id (what ())
      Position.pp l.Link.pos
  | None, Some (p, occupant) ->
    if Option.is_some occupant then
      fail "links: node %d is missing %s to %a" owner.Node.id (what ()) Position.pp p
  | Some l, Some (p, occupant) -> (
    if not (Position.equal l.Link.pos p) then
      fail "links: node %d %s points at %a, expected %a" owner.Node.id (what ())
        Position.pp l.Link.pos Position.pp p;
    match occupant with
    | None -> fail "links: node %d %s points at empty position %a" owner.Node.id (what ()) Position.pp p
    | Some (target : Node.t) ->
      if target.Node.id <> l.Link.peer then
        fail "links: node %d %s points at peer %d, occupant is %d" owner.Node.id
          (what ()) l.Link.peer target.Node.id;
      if strict then begin
        if not (Range.equal l.Link.range target.Node.range) then
          fail "links: node %d %s caches range %a, actual %a" owner.Node.id (what ())
            Range.pp l.Link.range Range.pp target.Node.range;
        if
          l.Link.has_left_child <> Option.is_some (Node.child target `Left)
          || l.Link.has_right_child <> Option.is_some (Node.child target `Right)
        then fail "links: node %d %s caches stale child flags" owner.Node.id (what ())
      end)

let peer_links ?(strict = true) net (n : Node.t) =
  let pos = n.Node.pos in
  let at p = Some (p, Wiring.occupant net p) in
  let expect p =
    match Wiring.occupant net p with None -> None | occupant -> Some (p, occupant)
  in
  let expected = function
    | Link.Parent ->
      if Position.is_root pos then None else expect (Position.parent pos)
    | Link.Child `Left -> expect (Position.left_child pos)
    | Link.Child `Right -> expect (Position.right_child pos)
    | Link.Adjacent `Left -> Option.bind (Wiring.in_order_predecessor net pos) at
    | Link.Adjacent `Right -> Option.bind (Wiring.in_order_successor net pos) at
  in
  List.iter
    (fun k ->
      check_link ~strict
        ~what:(fun () -> Format.asprintf "%a" Link.pp_kind k)
        ~owner:n (Node.link n k) (expected k))
    Link.all_kinds;
  List.iter
    (fun side ->
      let table = Node.table n side in
      for j = 0 to Routing_table.size table - 1 do
        match Position.neighbor pos side j with
        | Some q ->
          check_link ~strict
            ~what:(fun () -> Printf.sprintf "table slot %d" j)
            ~owner:n (Routing_table.get table j) (expect q)
        | None -> ()
      done)
    [ `Left; `Right ]

let links ?(strict = true) net = List.iter (peer_links ~strict net) (Net.peers net)

let in_order_nodes net =
  match Net.root net with
  | None -> []
  | Some root ->
    let rec collect pos acc =
      match Wiring.occupant net pos with
      | None -> acc
      | Some n ->
        let acc = collect (Position.right_child pos) acc in
        let acc = n :: acc in
        collect (Position.left_child pos) acc
    in
    collect root.Node.pos []

let ranges net =
  let nodes = in_order_nodes net in
  match nodes with
  | [] -> ()
  | first :: _ ->
    let rec walk = function
      | (a : Node.t) :: ((b : Node.t) :: _ as rest) ->
        if not (Range.touches_left a.Node.range b.Node.range) then
          fail "ranges: %a of node %d and %a of node %d do not tile" Range.pp
            a.Node.range a.Node.id Range.pp b.Node.range b.Node.id;
        walk rest
      | [ _ ] | [] -> ()
    in
    walk nodes;
    let last = List.nth nodes (List.length nodes - 1) in
    let lo = first.Node.range.Range.lo and hi = last.Node.range.Range.hi in
    let domain = Net.domain net in
    (* Ends may have expanded beyond the initial domain but never
       contracted inside it. *)
    if lo > domain.Range.lo || hi < domain.Range.hi then
      fail "ranges: global range [%d,%d) no longer covers the domain %a" lo hi
        Range.pp domain

let data_placement net =
  List.iter
    (fun (n : Node.t) ->
      List.iter
        (fun key ->
          if not (Range.contains n.Node.range key) then
            fail "data_placement: key %d stored at node %d outside range %a" key
              n.Node.id Range.pp n.Node.range)
        (Baton_util.Sorted_store.to_list n.Node.store))
    (Net.peers net)

(* One root walk that also follows the in-order range tiling: the
   healthy case of [balanced], [height_bound], [tree_shape] and
   [ranges] at once. Reaching every registered peer from the root is
   [tree_shape]; the walk visits exactly [in_order_nodes]. *)
let healthy_shape net =
  let reached = ref 0 and first = ref None and last = ref None in
  let visit (n : Node.t) =
    incr reached;
    (match !last with
    | None -> first := Some n
    | Some (prev : Node.t) ->
      if not (Range.touches_left prev.Node.range n.Node.range) then raise Exit);
    last := Some n
  in
  match root_walk net ~visit with
  | exception Exit -> None
  | h ->
    let covers =
      match (!first, !last) with
      | Some (a : Node.t), Some (b : Node.t) ->
        let domain = Net.domain net in
        a.Node.range.Range.lo <= domain.Range.lo
        && b.Node.range.Range.hi >= domain.Range.hi
      | _ -> true
    in
    let n = Net.size net in
    if
      !reached = Net.registered net
      && (n <= 1 || float_of_int h <= max_height n)
      && covers
    then Some h
    else None

let all net =
  tree_shape net;
  balanced net;
  height_bound net;
  theorem1 net;
  theorem2 net;
  links ~strict:true net;
  ranges net;
  data_placement net
