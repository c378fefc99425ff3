module Sorted_store = Baton_util.Sorted_store

(* A shift plan: the positions whose occupants move, starting at the
   insertion point, plus the fresh leaf slot for the last mover (join
   side) or the vacated safe leaf (leave side). Plans are computed on
   the current position map; the subsequent relabelling does not change
   which positions are occupied (except at the plan's far end), so the
   plan stays valid while it is executed. *)

(* Join side, shifting right: find [q0; q1; ...; qk] (successive
   in-order successors) such that the occupant displaced from [qk] can
   settle as the left child of [qk]'s successor — or, at the very right
   end of the tree, as the right child of [qk] itself. *)
(* The paper's absorb rule is Theorem 1's sufficient condition (the
   slot's parent has structurally full tables). When no chain satisfies
   it, [`Exact] falls back to the precise balance criterion: adding the
   leaf leaves every ancestor's subtree heights within one. *)
let addition_keeps_balance net slot =
  let level = slot.Position.level in
  let rec up a ok =
    ok
    &&
    if Position.is_root a then ok
    else begin
      let parent = Position.parent a in
      let sibling = Position.sibling a in
      let h_mine = max (Wiring.subtree_height net a) (level - a.Position.level) in
      let h_sib = Wiring.subtree_height net sibling in
      up parent (abs (h_mine - h_sib) <= 1)
    end
  in
  up slot true

let absorb_ok net rule q slot =
  (not (Wiring.occupied net slot))
  &&
  match rule with
  | `Theorem1 -> Wiring.tables_full_at net q
  | `Exact -> addition_keeps_balance net slot

(* Between two in-order consecutive positions [pk < q] there are at
   most two empty slots a mover can settle in: pk's right-child slot
   (when pk has no right subtree) and q's left-child slot (when q has
   no left subtree). Examining both means the chain walk considers
   every empty leaf slot on its side of the insertion point. *)
let plan_right ?(rule = `Theorem1) net q0 =
  let rec go pk acc =
    let chain = List.rev (pk :: acc) in
    let here = Position.right_child pk in
    if absorb_ok net rule pk here then Some (chain, here)
    else
      match Wiring.in_order_successor net pk with
      | Some q ->
        let slot = Position.left_child q in
        if absorb_ok net rule q slot then Some (chain, slot) else go q (pk :: acc)
      | None -> None
  in
  go q0 []

(* Mirror image, shifting left. *)
let plan_left ?(rule = `Theorem1) net q0 =
  let rec go pk acc =
    let chain = List.rev (pk :: acc) in
    let here = Position.left_child pk in
    if absorb_ok net rule pk here then Some (chain, here)
    else
      match Wiring.in_order_predecessor net pk with
      | Some q ->
        let slot = Position.right_child q in
        if absorb_ok net rule q slot then Some (chain, slot) else go q (pk :: acc)
      | None -> None
  in
  go q0 []

(* Relabel: [incoming] takes [chain.(0)], each chain occupant takes the
   next chain position, the last occupant takes [slot]. One message per
   handover; then every mover rebuilds its links and announces itself. *)
let execute_shift net ~(incoming : Node.t) ~chain ~slot =
  let movers = List.map (fun p -> Option.get (Wiring.occupant net p)) chain in
  (* Coordination messages travel along the chain. *)
  List.iter
    (fun (m : Node.t) ->
      ignore (Net.send net ~src:incoming.Node.id ~dst:m.Node.id ~kind:Msg.restructure))
    movers;
  (* Each mover's target is the next chain position; the last mover
     gets the fresh slot. Move from the far end backwards so that every
     target is vacant when it is taken. *)
  let targets = List.tl chain @ [ slot ] in
  List.iter
    (fun ((m : Node.t), target) -> Net.reposition net m target)
    (List.rev (List.combine movers targets));
  (match chain with
  | first :: _ ->
    incoming.Node.pos <- first;
    Node.bump_epoch incoming;
    Net.register net incoming
  | [] -> invalid_arg "Restructure.execute_shift: empty chain");
  let moved = incoming :: movers in
  List.iter (fun m -> Wiring.rebuild_links net m ~kind:Msg.restructure) moved;
  List.iter (fun m -> Wiring.announce net m ~kind:Msg.restructure) moved;
  (* The new leaf's parent gained a child: refresh its watchers too. *)
  (if not (Position.is_root slot) then
     match Wiring.occupant net (Position.parent slot) with
     | Some parent -> Wiring.announce net parent ~kind:Msg.restructure
     | None -> ());
  (* Second pass: a mover's first snapshot of a neighbour was taken
     before that neighbour had heard all the announcements (e.g. a
     parent that had not yet learnt of its new child), so refresh every
     mover's links once more now that all watchers are up to date. *)
  List.iter (fun m -> Wiring.rebuild_links net m ~kind:Msg.restructure) moved;
  Net.record_shift net (List.length moved)

let split_with (x : Node.t) (y : Node.t) =
  let m = Join.split_point x in
  let low, high = Range.split_at x.Node.range m in
  Node.set_range y low;
  Node.set_range x high;
  let moved = Sorted_store.split_below x.Node.store m in
  Sorted_store.absorb y.Node.store moved

let forced_join net ~parent:(x : Node.t) new_id =
  Net.with_op net ~kind:Msg.op_restructure @@ fun () ->
  if Option.is_none (Node.child x `Left) && Node.tables_full x then begin
    (* Safe: a plain accept (left slot is free, so the joiner becomes
       the left child and takes the lower half). *)
    let y, _msgs = Join.accept net ~acceptor:x new_id in
    Net.record_shift net 1;
    y
  end
  else begin
    (* Theorem 1 would be violated: split content, then insert the new
       peer just before x in the in-order sequence by shifting. *)
    let y = Node.create ~id:new_id ~pos:x.Node.pos ~range:x.Node.range in
    split_with x y;
    let left_start = Wiring.in_order_predecessor net x.Node.pos in
    let attempt rule =
      match plan_right ~rule net x.Node.pos with
      | Some plan -> Some plan
      | None -> Option.bind left_start (plan_left ~rule net)
    in
    (match attempt `Theorem1 with
    | Some (chain, slot) -> execute_shift net ~incoming:y ~chain ~slot
    | None -> (
      match attempt `Exact with
      | Some (chain, slot) -> execute_shift net ~incoming:y ~chain ~slot
      | None -> failwith "Restructure.forced_join: no slot in either direction"));
    (* x's range and content changed: tell its watchers. *)
    Wiring.announce net x ~kind:Msg.restructure;
    y
  end

let forced_leave net (x : Node.t) =
  Net.with_op net ~kind:Msg.op_restructure @@ fun () ->
  let pos = x.Node.pos in
  if Wiring.safe_leaf_removal net pos then begin
    Wiring.retract net x ~kind:Msg.restructure;
    Net.unregister net x;
    (* The departed leaf's in-order neighbours become mutually
       adjacent: one message each way re-links them. *)
    (match
       ( Wiring.in_order_predecessor net pos,
         Wiring.in_order_successor net pos )
     with
    | Some ppos, Some spos -> (
      match (Wiring.occupant net ppos, Wiring.occupant net spos) with
      | Some a, Some b ->
        let a_info = Node.info a and b_info = Node.info b in
        Net.notify net ~expect_pos:a.Node.pos ~src:b.Node.id ~dst:a.Node.id
          ~kind:Msg.restructure (fun a -> Node.set_adjacent a `Right (Some b_info));
        Net.notify net ~expect_pos:b.Node.pos ~src:a.Node.id ~dst:b.Node.id
          ~kind:Msg.restructure (fun b -> Node.set_adjacent b `Left (Some a_info))
      | _, _ -> ())
    | (Some _ | None), (Some _ | None) -> ());
    (if not (Position.is_root pos) then
       match Wiring.occupant net (Position.parent pos) with
       | Some parent -> Wiring.announce net parent ~kind:Msg.restructure
       | None -> ());
    Net.record_shift net 1
  end
  else begin
    (* Find, on the full map, the nearest in-order chain ending at a
       safely-removable leaf; its occupants will shift towards the
       hole. *)
    let plan step =
      let rec go p acc =
        match step p with
        | None -> None
        | Some q ->
          let acc = q :: acc in
          if Wiring.safe_leaf_removal net q then Some (List.rev acc) else go q acc
      in
      go pos []
    in
    let chain =
      match plan (Wiring.in_order_predecessor net) with
      | Some c -> c
      | None -> (
        match plan (Wiring.in_order_successor net) with
        | Some c -> c
        | None -> failwith "Restructure.forced_leave: no removable leaf found")
    in
    (* chain = [r1; ...; rj]: occ r1 -> hole, occ r2 -> r1, ...,
       occ rj -> r(j-1); rj is vacated and ceases to exist. *)
    let movers = List.map (fun p -> Option.get (Wiring.occupant net p)) chain in
    List.iter
      (fun (m : Node.t) ->
        ignore (Net.send net ~src:x.Node.id ~dst:m.Node.id ~kind:Msg.restructure))
      movers;
    let last = List.nth movers (List.length movers - 1) in
    let last_pos = last.Node.pos in
    Wiring.retract net x ~kind:Msg.restructure;
    Net.unregister net x;
    let targets = pos :: List.filteri (fun i _ -> i < List.length chain - 1) chain in
    List.iter
      (fun ((m : Node.t), target) -> Net.reposition net m target)
      (List.combine movers targets);
    (* The far-end position is now empty: its watchers drop it. *)
    Wiring.retract_position net ~pos:last_pos ~peer:last.Node.id ~kind:Msg.restructure;
    List.iter (fun m -> Wiring.rebuild_links net m ~kind:Msg.restructure) movers;
    List.iter (fun m -> Wiring.announce net m ~kind:Msg.restructure) movers;
    (if not (Position.is_root last_pos) then
       match Wiring.occupant net (Position.parent last_pos) with
       | Some parent -> Wiring.announce net parent ~kind:Msg.restructure
       | None -> ());
    (* See execute_shift: refresh mover links after all announcements. *)
    List.iter (fun m -> Wiring.rebuild_links net m ~kind:Msg.restructure) movers;
    Net.record_shift net (List.length movers + 1)
  end
