module Metrics = Baton_sim.Metrics
module Sorted_store = Baton_util.Sorted_store

type stats = {
  acceptor : int;
  new_peer : int;
  search_msgs : int;
  update_msgs : int;
}

let can_accept (n : Node.t) =
  Node.tables_full n
  && (Option.is_none (Node.child n `Left) || Option.is_none (Node.child n `Right))

(* Algorithm 1. The [visited] set breaks the ping-pong that stale
   child-presence flags could otherwise cause; when every listed option
   is exhausted we descend to a child, which always makes progress
   towards the (accepting) leaves. A hop to a dead or stale link costs
   its message; the sender drops the link and re-decides. *)
let find_join_node net ~via =
  let visited = Hashtbl.create 16 in
  let budget = 64 + (4 * (1 + Net.size net)) in
  let hop (n : Node.t) (target : Link.info) =
    match Net.send net ~src:n.Node.id ~dst:target.Link.peer ~kind:Msg.join_search with
    | next -> Some next
    | exception Baton_sim.Bus.Unreachable dead ->
      Node.drop_links_for_peer n dead;
      None
    | exception Baton_sim.Bus.Timeout _ ->
      (* Possibly alive behind a lossy link: keep the link, just pick
         another option this round. *)
      None
    | exception Not_found ->
      Node.drop_links_for_peer n target.Link.peer;
      None
  in
  let rec walk (n : Node.t) msgs =
    if msgs > budget then failwith "Join.find_join_node: no acceptor found"
    else begin
      Hashtbl.replace visited n.Node.id ();
      let fresh (i : Link.info) = not (Hashtbl.mem visited i.Link.peer) in
      if can_accept n then (n, msgs)
      else if not (Node.tables_full n) then
        match Node.parent n with
        | Some p when fresh p -> follow n p msgs
        | Some _ | None -> dive n msgs
      else begin
        let lacking =
          List.find_opt
            (fun (_, i) -> Link.has_spare_child_slot i && fresh i)
            (Node.neighbor_entries n)
        in
        match lacking with
        | Some (_, m) -> follow n m msgs
        | None -> (
          let adj side =
            match Node.adjacent n side with
            | Some a when fresh a -> Some a
            | Some _ | None -> None
          in
          match (adj `Right, adj `Left) with
          | Some a, _ | None, Some a -> follow n a msgs
          | None, None -> dive n msgs)
      end
    end
  and follow n target msgs =
    match hop n target with
    | Some next -> walk next (msgs + 1)
    | None -> walk n (msgs + 1)
  (* Every interesting direction was already visited — only possible
     when routing knowledge is stale (concurrent churn). Descend: the
     first node with a spare child slot on the way down accepts, and a
     leaf always has one, so this terminates. *)
  and dive (n : Node.t) msgs =
    if msgs > budget then failwith "Join.find_join_node: no acceptor found"
    else if
      Option.is_none (Node.child n `Left)
      || Option.is_none (Node.child n `Right)
    then (n, msgs)
    else
      match hop n (Option.get (Node.child n `Left)) with
      | Some next -> dive next (msgs + 1)
      | None -> dive n (msgs + 1)
  in
  walk via 0

(* Split point for the acceptor's range: the content median when it is
   a legal interior point (so each side keeps half the load), else the
   arithmetic midpoint. *)
let split_point (x : Node.t) =
  let r = x.Node.range in
  let n = Sorted_store.length x.Node.store in
  let candidate =
    if n = 0 then Range.midpoint r else Sorted_store.nth x.Node.store (n / 2)
  in
  if candidate > r.Range.lo && candidate < r.Range.hi then candidate
  else Range.midpoint r

let accept net ~acceptor:(x : Node.t) new_id =
  let mcp = Metrics.checkpoint (Net.metrics net) in
  let side =
    match (Node.child x `Left, Node.child x `Right) with
    | None, _ -> `Left
    | Some _, None -> `Right
    | Some _, Some _ -> invalid_arg "Join.accept: acceptor has both children"
  in
  let ypos = Position.child x.Node.pos side in
  (* A child link dropped while routing around a failure can hide an
     occupied child position: refuse before splitting anything. *)
  if Option.is_some (Net.peer_at net ypos) then
    invalid_arg "Join.accept: position occupied";
  let m = split_point x in
  let low, high = Range.split_at x.Node.range m in
  let yrange, xrange = match side with `Left -> (low, high) | `Right -> (high, low) in
  let y = Node.create ~id:new_id ~pos:ypos ~range:yrange in
  Node.set_range x xrange;
  (* Hand over the content on the new node's side of the split. *)
  let moved =
    match side with
    | `Left -> Sorted_store.split_below x.Node.store m
    | `Right -> Sorted_store.split_at_or_above x.Node.store m
  in
  Sorted_store.absorb y.Node.store moved;
  Net.register net y;
  (* Parent / child links. *)
  let opposite = match side with `Left -> `Right | `Right -> `Left in
  Node.set_child x side (Some (Node.info y));
  Node.set_parent y (Some (Node.info x));
  (* Adjacent links: y slides between x and x's old adjacent on that
     side; the displaced adjacent (if any) is told to repoint (1 msg). *)
  let outer = Node.adjacent x side in
  Node.set_adjacent y side outer;
  Node.set_adjacent y opposite (Some (Node.info x));
  Node.set_adjacent x side (Some (Node.info y));
  (match outer with
  | Some z ->
    Net.notify net ~expect_pos:z.Link.pos ~src:y.Node.id ~dst:z.Link.peer
      ~kind:Msg.join_update (fun z ->
        Node.set_adjacent z opposite (Some (Node.info y)))
  | None -> ());
  (* Record [info] in whichever of [node]'s tables has a slot for the
     given position (at most one side matches). *)
  let set_slot (node : Node.t) pos info =
    List.iter
      (fun s ->
        match Routing_table.slot_for ~owner:node.Node.pos (Node.table node s) pos with
        | Some j -> Routing_table.set (Node.table node s) j (Some info)
        | None -> ())
      [ `Left; `Right ]
  in
  (* Sibling: one message from x, one reply to y; both fill their
     distance-1 slots and the sibling refreshes its parent link. *)
  (match Node.child x opposite with
  | Some s_link ->
    let x_info = Node.info x in
    let y_info = Node.info y in
    Net.notify net ~expect_pos:s_link.Link.pos ~src:x.Node.id ~dst:s_link.Link.peer
      ~kind:Msg.join_update (fun s ->
        Node.set_parent s (Some x_info);
        set_slot s ypos y_info;
        Net.notify net ~src:s.Node.id ~dst:y.Node.id ~kind:Msg.join_update (fun y ->
            set_slot y s.Node.pos (Node.info s)))
  | None -> ());
  (* The routing-table conversation: x tells each sideways neighbour w
     (which refreshes its view of x); w forwards y's info to each of
     its children at a power-of-two distance from y; each such child c
     adds y and answers y with its own info. *)
  let x_info = Node.info x in
  let y_info = Node.info y in
  (* A child of a neighbour of x is relevant iff it sits at an exact
     power-of-two distance from y's position (it is a sideways
     neighbour of y). w can decide this locally from the positions. *)
  let is_power_of_two d = d > 0 && d land (d - 1) = 0 in
  let relevant_to_y (p : Position.t) =
    p.Position.level = ypos.Position.level
    && is_power_of_two (abs (p.Position.number - ypos.Position.number))
  in
  List.iter
    (fun (_, (w_link : Link.info)) ->
      Net.notify net ~expect_pos:w_link.Link.pos ~src:x.Node.id ~dst:w_link.Link.peer
        ~kind:Msg.join_update (fun w ->
          (* w refreshes its slot for x (new range, new child flag). *)
          set_slot w x.Node.pos x_info;
          let forward (c_link : Link.info) =
            if relevant_to_y c_link.Link.pos then
              Net.notify net ~expect_pos:c_link.Link.pos ~src:w.Node.id
                ~dst:c_link.Link.peer ~kind:Msg.join_update (fun c ->
                  set_slot c ypos y_info;
                  Net.notify net ~src:c.Node.id ~dst:y.Node.id ~kind:Msg.join_update
                    (fun y -> set_slot y c.Node.pos (Node.info c)))
          in
          (match Node.child w `Left with Some c -> forward c | None -> ());
          (match Node.child w `Right with Some c -> forward c | None -> ())))
    (Node.neighbor_entries x);
  (* Constant-size refreshes: x's parent, other child and far adjacent
     cache x's range, which just changed. *)
  let refresh_x (peer : Link.info) =
    Net.notify net ~src:x.Node.id ~dst:peer.Link.peer ~kind:Msg.join_update (fun p ->
        Node.update_links_for_peer p x.Node.id (fun _ -> x_info))
  in
  (match Node.parent x with Some p -> refresh_x p | None -> ());
  (match Node.adjacent x opposite with Some a -> refresh_x a | None -> ());
  (y, Metrics.since (Net.metrics net) mcp)

let join net ~via =
  Net.with_op net ~kind:Msg.op_join (fun () ->
      let acceptor, search_msgs = find_join_node net ~via in
      (* The acceptor may have crashed while the last search hop was in
         flight; splitting its store would revive keys lost with it. *)
      if Baton_sim.Bus.is_failed (Net.bus net) acceptor.Node.id then
        raise (Baton_sim.Bus.Unreachable acceptor.Node.id);
      let new_id = Net.fresh_id net in
      let y, update_msgs = accept net ~acceptor new_id in
      {
        acceptor = acceptor.Node.id;
        new_peer = y.Node.id;
        search_msgs;
        update_msgs;
      })

let join_new_network net = Net.bootstrap net
