module Metrics = Baton_sim.Metrics
module Sorted_store = Baton_util.Sorted_store

type stats = {
  replacement : int option;
  search_msgs : int;
  update_msgs : int;
}

(* A handover moves keys only after its message wait, and a crash during
   the wait took the crashed side's keys with it: moving them then would
   bring lost keys back, or drop live ones into a dead store. So the
   departure fails with nothing moved. *)
let require_live net (n : Node.t) =
  if Baton_sim.Bus.is_failed (Net.bus net) n.Node.id then
    raise (Baton_sim.Bus.Unreachable n.Node.id)

let can_depart_directly (x : Node.t) =
  Node.is_leaf x
  && List.for_all
       (fun (_, (i : Link.info)) ->
         (not i.Link.has_left_child) && not i.Link.has_right_child)
       (Node.neighbor_entries x)

let direct_departure net (x : Node.t) ~kind =
  if Position.is_root x.Node.pos then
    (* The last node: the network becomes empty. *)
    Net.unregister net x
  else begin
    (* Content and range transfer to the parent (one message). The
       cached parent link can be stale (the parent was replaced under
       concurrent churn) or missing (dropped while routing around a
       failure); the detour through the tree costs two more messages. *)
    let parent_pos = Position.parent x.Node.pos in
    let detour () =
      match Wiring.occupant net parent_pos with
      | Some fresh_parent ->
        ignore (Net.send net ~src:x.Node.id ~dst:fresh_parent.Node.id ~kind);
        ignore (Net.send net ~src:fresh_parent.Node.id ~dst:x.Node.id ~kind);
        fresh_parent
      | None -> failwith "Leave.direct_departure: parent position empty"
    in
    let p =
      match Node.parent x with
      | None -> detour ()
      | Some p_link -> (
        match Net.send net ~src:x.Node.id ~dst:p_link.Link.peer ~kind with
        | p ->
          (* The peer behind the cached link may have moved to another
             position since; it redirects us. *)
          if Position.equal p.Node.pos parent_pos then p else detour ()
        | exception Baton_sim.Bus.Unreachable _
        | exception Baton_sim.Bus.Timeout _
        | exception Not_found ->
          detour ())
    in
    require_live net x;
    require_live net p;
    (* Merge before moving anything: ranges that do not touch (a tree
       torn by a crash mid-leave) must fail the leave with [p]
       untouched, not after [x]'s keys have landed outside [p]'s
       range. *)
    let merged = Range.merge p.Node.range x.Node.range in
    Sorted_store.absorb p.Node.store x.Node.store;
    Node.set_range p merged;
    let side = if Position.is_left_child x.Node.pos then `Left else `Right in
    Node.set_child p side None;
    (* Splice adjacency: the parent inherits x's outer adjacent. *)
    let outer = Node.adjacent x side in
    Node.set_adjacent p side outer;
    let opposite = match side with `Left -> `Right | `Right -> `Left in
    (* LEAVE messages: everyone holding a link to x drops it. Watchers
       are derived from x's position so that a gap in x's own tables
       (e.g. after routing around failures) cannot leave a dangling
       reference behind. *)
    Wiring.retract net x ~kind;
    (match outer with
    | Some z ->
      let p_info = Node.info p in
      Net.notify net ~expect_pos:z.Link.pos ~src:x.Node.id ~dst:z.Link.peer ~kind
        (fun z -> Node.set_adjacent z opposite (Some p_info))
    | None -> ());
    Net.unregister net x;
    (* The parent's range, content and child set changed: broadcast. *)
    Wiring.announce net p ~kind
  end

(* Algorithm 2. [hop] pays one forwarding message per step. *)
let find_replacement net (x : Node.t) =
  if can_depart_directly x then
    invalid_arg "Leave.find_replacement: node can depart directly";
  (* A hop to a dead or stale link costs its message; the sender drops
     the link and the caller re-decides from its current node. *)
  let hop_opt (n : Node.t) (target : Link.info) =
    match Net.send net ~src:n.Node.id ~dst:target.Link.peer ~kind:Msg.leave_search with
    | next -> Some next
    | exception Baton_sim.Bus.Unreachable dead ->
      Node.drop_links_for_peer n dead;
      None
    | exception Baton_sim.Bus.Timeout _ ->
      (* Possibly alive behind a lossy link: try another path. *)
      None
    | exception Not_found ->
      Node.drop_links_for_peer n target.Link.peer;
      None
  in
  let visited = Hashtbl.create 16 in
  let child_bearing (n : Node.t) =
    List.find_opt
      (fun (_, (i : Link.info)) ->
        (i.Link.has_left_child || i.Link.has_right_child)
        && not (Hashtbl.mem visited i.Link.peer))
      (Node.neighbor_entries n)
  in
  let budget = 64 + (4 * (1 + Net.size net)) in
  (* Algorithm 2 proper: descend through children; from a leaf, jump to
     a child of a child-bearing sideways neighbour; otherwise this node
     is the replacement. A failed hop drops the link and re-decides;
     the visited set stops ping-pong between leaves whose cached child
     flags are stale under concurrent churn. *)
  let rec walk (n : Node.t) msgs =
    Hashtbl.replace visited n.Node.id ();
    if msgs > budget then failwith "Leave.find_replacement: walk did not terminate"
    else
      match (Node.child n `Left, Node.child n `Right) with
      | Some c, _ | None, Some c -> follow n c msgs
      | None, None -> (
        match child_bearing n with
        | Some (_, w_link) -> follow n w_link msgs
        | None -> (n, msgs))
  and follow n target msgs =
    match hop_opt n target with
    | Some next -> walk next (msgs + 1)
    | None -> walk n (msgs + 1)
  in
  (* First step: an internal node starts at an adjacent node (which is
     a leaf or as deep as possible); a leaf starts at a child-bearing
     sideways neighbour. *)
  let start_walk () =
    if Node.is_leaf x then walk x 0
    else
      match (Node.adjacent x `Left, Node.adjacent x `Right) with
      | Some a, _ | None, Some a -> (
        match hop_opt x a with Some n -> walk n 1 | None -> walk x 1)
      | None, None -> assert false (* an internal node has a subtree *)
  in
  start_walk ()

let assume_position net ~leaver:(x : Node.t) ~replacement:(y : Node.t) ~kind =
  (* One message hands over content, range and x's link state. The
     replacement already left the position map, so talk to it through
     the bus directly. *)
  (* The handover must eventually get through: y already committed to
     replacing x. Retries are counted; a residual timeout is tolerated
     (the coordinator would keep retrying off-protocol). *)
  (try Net.send_raw net ~src:x.Node.id ~dst:y.Node.id ~kind
   with Baton_sim.Bus.Timeout _ -> ());
  require_live net x;
  Sorted_store.absorb y.Node.store x.Node.store;
  Net.unregister net x;
  y.Node.pos <- x.Node.pos;
  Node.bump_epoch y;
  Node.set_range y x.Node.range;
  Net.register net y;
  (* Rebuild y's links at its new position (paying one message per
     contacted peer) and tell everyone who linked to x that y replaced
     it. *)
  Wiring.rebuild_links net y ~kind;
  Wiring.announce net y ~kind;
  (* The parent's child link may have been dropped while x was
     unreachable, leaving its watchers with stale child flags; its
     announcement refreshes them. *)
  if not (Position.is_root y.Node.pos) then
    match Wiring.occupant net (Position.parent y.Node.pos) with
    | Some parent -> Wiring.announce net parent ~kind
    | None -> ()

(* Under concurrent churn a node's link to a child can have been
   dropped (the child peer was replaced and the announcement is still
   in flight) while the child position is occupied. Before acting on
   leaf-ness, such a node re-discovers its links — paying the usual
   messages — exactly as it would on its next failed contact. *)
let ensure_fresh_children net (x : Node.t) =
  let stale side =
    Option.is_none (Node.child x side)
    && Wiring.occupied net (Position.child x.Node.pos side)
  in
  if stale `Left || stale `Right then Wiring.rebuild_links net x ~kind:Msg.leave_update

(* Walk until the replacement is a structural leaf. *)
let rec resolve_from net (x : Node.t) acc =
  let y, msgs = find_replacement net x in
  ensure_fresh_children net y;
  if Node.is_leaf y || y.Node.id = x.Node.id then (y, acc + msgs)
  else resolve_from net y (acc + msgs)

let resolve_replacement net x = resolve_from net x 0

let rec leave net (x : Node.t) =
  Net.with_op net ~kind:Msg.op_leave (fun () -> leave_run net x)

and leave_run net (x : Node.t) =
  let metrics = Net.metrics net in
  let cp = Metrics.checkpoint metrics in
  ensure_fresh_children net x;
  if can_depart_directly x then begin
    direct_departure net x ~kind:Msg.leave_update;
    { replacement = None; search_msgs = 0; update_msgs = Metrics.since metrics cp }
  end
  else begin
    let y, search_msgs = resolve_replacement net x in
    let cp_update = Metrics.checkpoint metrics in
    if y.Node.id = x.Node.id then begin
      (* Stale flags made the walk come home: x itself is safely
         removable after all. *)
      direct_departure net x ~kind:Msg.leave_update;
      { replacement = None; search_msgs; update_msgs = Metrics.since metrics cp_update }
    end
    else begin
      direct_departure net y ~kind:Msg.leave_update;
      assume_position net ~leaver:x ~replacement:y ~kind:Msg.leave_update;
      {
        replacement = Some y.Node.id;
        search_msgs;
        update_msgs = Metrics.since metrics cp_update;
      }
    end
  end
