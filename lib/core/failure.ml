module Bus = Baton_sim.Bus
module Sorted_store = Baton_util.Sorted_store

let crash net (x : Node.t) = Bus.fail (Net.bus net) x.Node.id

(* The guardian is the peer that manages the departure: the parent, or
   a child when the root itself died. *)
let guardian net (dead : Node.t) =
  let candidates =
    (if Position.is_root dead.Node.pos then []
     else
       match Wiring.occupant net (Position.parent dead.Node.pos) with
       | Some p -> [ p ]
       | None -> [])
    @ (match Wiring.occupant net (Position.left_child dead.Node.pos) with
      | Some c -> [ c ]
      | None -> [])
    @
    match Wiring.occupant net (Position.right_child dead.Node.pos) with
    | Some c -> [ c ]
    | None -> []
  in
  List.find_opt (fun (n : Node.t) -> not (Bus.is_failed (Net.bus net) n.Node.id)) candidates

(* Regenerate the dead node's links: the guardian queries the children
   of its own sideways neighbours (paper: "quickly regenerate the left
   and right routing tables of x by contacting children of nodes in its
   own routing tables"); each consulted peer costs a message, as does
   its answer. We pay two messages per recovered link and rebuild the
   state from the position map, whose content is exactly what that
   conversation would return. *)
let regenerate net (guardian_node : Node.t) (dead : Node.t) =
  let pos = dead.Node.pos in
  (* Occupants that are themselves down are still recorded: the
     guardian learns of them from their neighbours (paper III-C), and
     the attempted contact is what costs the messages. *)
  let consult target_pos =
    match Wiring.occupant net target_pos with
    | Some (t : Node.t) ->
      (try ignore (Net.send net ~src:guardian_node.Node.id ~dst:t.Node.id ~kind:Msg.repair)
       with Bus.Unreachable _ | Bus.Timeout _ -> ());
      (try ignore (Net.send net ~src:t.Node.id ~dst:guardian_node.Node.id ~kind:Msg.repair)
       with Bus.Unreachable _ | Bus.Timeout _ -> ());
      Some (Node.info t)
    | None -> None
  in
  let resolve : Link.kind -> Link.info option = function
    | Link.Parent ->
      if Position.is_root pos then None else consult (Position.parent pos)
    | Link.Child `Left -> consult (Position.left_child pos)
    | Link.Child `Right -> consult (Position.right_child pos)
    | Link.Adjacent `Left ->
      Option.bind (Wiring.in_order_predecessor net pos) consult
    | Link.Adjacent `Right ->
      Option.bind (Wiring.in_order_successor net pos) consult
  in
  List.iter (fun k -> Node.set_link dead k (resolve k)) Link.all_kinds;
  Node.reset_tables dead;
  List.iter
    (fun side ->
      let table = Node.table dead side in
      for j = 0 to Routing_table.size table - 1 do
        match Position.neighbor pos side j with
        | Some q -> Routing_table.set table j (consult q)
        | None -> ()
      done)
    [ `Left; `Right ]

let rec repair_run net ~reporter dead_id =
  match Net.peer_opt net dead_id with
  | None -> () (* already repaired *)
  | Some dead ->
    if not (Bus.is_failed (Net.bus net) dead_id) then ()
    else begin
      (* Parent-child double failures (paper III-D): try to settle the
         deeper failures first — a child with live children of its own
         can recover before its parent. One attempt each; a child whose
         whole neighbourhood is dead is picked up by a later report
         once this node has been replaced. *)
      let failed_child side =
        match Wiring.occupant net (Position.child dead.Node.pos side) with
        | Some c when Bus.is_failed (Net.bus net) c.Node.id -> Some c.Node.id
        | Some _ | None -> None
      in
      List.iter
        (fun side ->
          match failed_child side with
          | Some cid -> repair_run net ~reporter cid
          | None -> ())
        [ `Left; `Right ];
      match guardian net dead with
      | None ->
        (* No live parent or child: the dead node was the only peer, or
           its whole neighbourhood is dead too — the repair completes
           when a later report arrives after the neighbours are back. *)
        if Net.size net = 0 then Net.unregister net dead
      | Some g ->
        (* The discovery report travels to the guardian. *)
        (try ignore (Net.send net ~src:reporter.Node.id ~dst:g.Node.id ~kind:Msg.repair)
         with Bus.Unreachable _ | Bus.Timeout _ -> ());
        regenerate net g dead;
        (* The dead node's data is gone; only its range survives. The
           guardian now drives a graceful departure on its behalf. *)
        Sorted_store.absorb (Sorted_store.create ()) dead.Node.store;
        Bus.revive (Net.bus net) dead_id;
        let has_structural_child =
          Wiring.occupied net (Position.left_child dead.Node.pos)
          || Wiring.occupied net (Position.right_child dead.Node.pos)
        in
        (* When link state is too damaged for Algorithm 2 (the walk
           comes home although the node has children), the guardian
           scans the in-order chain itself for a live, safely removable
           leaf — one message per step, like the walk it stands in
           for. *)
        let structural_replacement () =
          let live_safe q =
            Wiring.safe_leaf_removal net q
            &&
            match Wiring.occupant net q with
            | Some c -> not (Bus.is_failed (Net.bus net) c.Node.id)
            | None -> false
          in
          let rec scan step p =
            match step net p with
            | None -> None
            | Some q ->
              (match Wiring.occupant net q with
              | Some c ->
                (try ignore (Net.send net ~src:g.Node.id ~dst:c.Node.id ~kind:Msg.repair)
                 with Bus.Unreachable _ | Bus.Timeout _ -> ())
              | None -> ());
              if live_safe q then Wiring.occupant net q else scan step q
          in
          match scan Wiring.in_order_predecessor dead.Node.pos with
          | Some y -> Some y
          | None -> scan Wiring.in_order_successor dead.Node.pos
        in
        if Leave.can_depart_directly dead && not has_structural_child then
          Leave.direct_departure net dead ~kind:Msg.repair
        else begin
          (* The walk must end on a *structural* leaf: hopping towards a
             dead child drops the link, so a node with a failed child can
             come out of the walk looking like a leaf. Departing it would
             orphan its real subtree and break the range tiling, so check
             the position map, not the (possibly damaged) links. *)
          let replacement, _msgs = Leave.resolve_replacement net dead in
          let structural_leaf (y : Node.t) =
            not
              (Wiring.occupied net (Position.left_child y.Node.pos)
              || Wiring.occupied net (Position.right_child y.Node.pos))
          in
          if replacement.Node.id <> dead.Node.id && structural_leaf replacement
          then begin
            Leave.direct_departure net replacement ~kind:Msg.repair;
            Leave.assume_position net ~leaver:dead ~replacement ~kind:Msg.repair
          end
          else if not has_structural_child then
            (* The walk came home and the node really is a leaf. *)
            Leave.direct_departure net dead ~kind:Msg.repair
          else begin
            match structural_replacement () with
            | Some y ->
              Leave.direct_departure net y ~kind:Msg.repair;
              Leave.assume_position net ~leaver:dead ~replacement:y ~kind:Msg.repair
            | None ->
              (* Whole neighbourhood still dark: leave the node failed
                 for a later report. *)
              Bus.fail (Net.bus net) dead_id
          end
        end
    end

(* The public entry: one discovery-to-recovery episode is one span,
   nested under whatever operation tripped over the failure. *)
let repair net ~reporter dead_id =
  Net.with_op net ~kind:Msg.op_repair (fun () ->
      repair_run net ~reporter dead_id)

let crash_and_repair net (x : Node.t) =
  crash net x;
  let reporter =
    (* Any live peer that would have tried to talk to x. *)
    Net.random_peer net
  in
  repair net ~reporter x.Node.id

(* --- Suspicion-driven (lazy) failure detection -------------------- *)

(* How many timeout observations convict a peer. A single timeout on a
   lossy network proves nothing; repeated silence from independent
   routing attempts does. Unreachable addresses convict immediately —
   in this simulator an Unreachable outcome is certain knowledge, the
   paper's "discover the address unreachable". *)
let suspicion_threshold = 3

(* Run the repair protocol on behalf of [observer], tolerating the
   reporter or any helper dying (or timing out) mid-repair: the
   attempt is abandoned and the still-failed node is picked up by a
   later report, exactly like the paper's repeated discovery. Partial
   progress is safe — [regenerate] only rewrites the dead node's own
   links, and the departure phase mutates shared state only after its
   messages went through. *)
let trigger net ~observer suspect_id =
  Net.event net Msg.ev_repair_triggered;
  Net.clear_suspicion net suspect_id;
  (* Under the concurrent runtime the repair runs inside the harness's
     membership critical section (see [Net.set_repair_serializer]):
     queries keep racing freely, but structural mutations — repairs,
     joins, leaves — never interleave with each other. By the time the
     section is entered the peer may already have been repaired by
     whoever held it first; [repair_run] re-checks and no-ops then. *)
  Net.serialize_repair net (fun () ->
      try repair net ~reporter:observer suspect_id
      with Bus.Unreachable _ | Bus.Timeout _ | Not_found | Failure _ -> ())

let observe_unreachable net ~observer dead_id =
  (* Whatever else happens, stop shortcutting through the dead peer:
     suspicion invalidates the observer's cached route immediately
     (local, no message; a no-op when the cache is off and empty). *)
  Route_cache.evict_peer observer.Node.cache dead_id;
  if Net.suspicion_repair net then begin
    Net.event net Msg.ev_suspect;
    trigger net ~observer dead_id
  end

let observe_timeout net ~observer suspect_id =
  Route_cache.evict_peer observer.Node.cache suspect_id;
  if Net.suspicion_repair net then begin
    Net.event net Msg.ev_suspect;
    if Net.suspect net suspect_id >= suspicion_threshold then begin
      (* Probe before acting: only an unreachable address convicts.
         The probe is an ordinary counted message (with retries). *)
      match Net.send net ~src:observer.Node.id ~dst:suspect_id ~kind:Msg.repair with
      | (_ : Node.t) -> Net.clear_suspicion net suspect_id (* alive after all *)
      | exception Bus.Unreachable _ -> trigger net ~observer suspect_id
      | exception Bus.Timeout _ -> () (* still ambiguous: keep counting *)
      | exception Not_found -> Net.clear_suspicion net suspect_id (* departed *)
    end
  end
