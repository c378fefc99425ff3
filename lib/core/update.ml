module Sorted_store = Baton_util.Sorted_store

type insert_stats = { node : int; hops : int; expanded : bool }

let rec insert net ~from key =
  Net.with_op net ~kind:Msg.op_insert (fun () -> insert_run net ~from key)

and insert_run net ~from key =
  let { Search.node; hops; _ } = Search.exact ~kind:Msg.insert net ~from key in
  (* The owner can crash while the walk's last hop is in flight: a key
     stored into its dead store would vanish behind a success. *)
  if Baton_sim.Bus.is_failed (Net.bus net) node.Node.id then
    raise (Search.Routing_stuck hops);
  let expanded =
    if Range.contains node.Node.range key then false
    else begin
      (* Only the genuine boundary node may expand (Section IV-C): the
         leftmost node's lower bound sits at (or beyond) the original
         domain edge and only ever moves outward, so the edge test
         identifies it exactly — likewise the rightmost. A walk that
         lands anywhere else without reaching the owner was stranded by
         failures; expanding *that* node would overlap a live peer's
         range and silently corrupt the tiling, so the insert aborts
         instead (the client retries, as for any stuck routing). *)
      let r = node.Node.range in
      let dom = Net.domain net in
      let boundary =
        if key < r.Range.lo then r.Range.lo <= dom.Range.lo
        else r.Range.hi >= dom.Range.hi
      in
      if not boundary then raise (Search.Routing_stuck hops);
      (if key < r.Range.lo then Node.set_range node { r with Range.lo = key }
       else Node.set_range node { r with Range.hi = key + 1 });
      Wiring.announce net node ~kind:Msg.expand;
      true
    end
  in
  Sorted_store.insert node.Node.store key;
  { node = node.Node.id; hops; expanded }

type delete_stats = { node : int; hops : int; found : bool }

let delete net ~from key =
  Net.with_op net ~kind:Msg.op_delete (fun () ->
      let { Search.node; hops; _ } =
        Search.exact ~kind:Msg.delete net ~from key
      in
      let found = Sorted_store.remove node.Node.store key in
      { node = node.Node.id; hops; found })

type bulk_stats = { keys : int; nodes : int; msgs : int }

let bulk_insert net ~from keys =
  match List.sort compare keys with
  | [] -> { keys = 0; nodes = 0; msgs = 0 }
  | smallest :: _ as sorted ->
    let metrics = Net.metrics net in
    let cp = Baton_sim.Metrics.checkpoint metrics in
    let { Search.node = first; _ } =
      Search.exact ~kind:Msg.insert net ~from smallest
    in
    (* Keys below the key space land on the leftmost node, which
       expands once for the whole batch. *)
    (if smallest < first.Node.range.Range.lo then begin
       Node.set_range first { first.Node.range with Range.lo = smallest };
       Wiring.announce net first ~kind:Msg.expand
     end);
    let nodes = ref 0 in
    let last_counted = ref (-1) in
    let count_once (node : Node.t) =
      if !last_counted <> node.Node.id then begin
        incr nodes;
        last_counted := node.Node.id
      end
    in
    (* Distribute along the in-order chain; each handover is one
       message carrying the remaining batch. [remaining] is sorted, so
       instead of a full List.partition scan per node — O(n·K) over the
       whole chain — each node slices its own segment off the front in
       time proportional to that segment: keys below its range (only
       possible after a stranded handover), then the keys it owns.
       The result is exactly the stable partition by Range.contains. *)
    let rec take_seg lo hi acc = function
      | k :: tl when k >= lo && k < hi -> take_seg lo hi (k :: acc) tl
      | l -> (List.rev acc, l)
    in
    let rec take_below lo acc = function
      | k :: tl when k < lo -> take_below lo (k :: acc) tl
      | l -> (acc, l)
    in
    let rec distribute (node : Node.t) remaining =
      match remaining with
      | [] -> ()
      | _ -> (
        let r = node.Node.range in
        let below_rev, from_lo = take_below r.Range.lo [] remaining in
        let mine, after = take_seg r.Range.lo r.Range.hi [] from_lo in
        let rest = List.rev_append below_rev after in
        if mine <> [] then begin
          count_once node;
          List.iter (Sorted_store.insert node.Node.store) mine
        end;
        match rest with
        | [] -> ()
        | _ -> (
          match Node.adjacent node `Right with
          | Some next -> (
            match
              Net.send net ~src:node.Node.id ~dst:next.Link.peer ~kind:Msg.insert
            with
            | next_node -> distribute next_node rest
            | exception Baton_sim.Bus.Unreachable _ -> ()
            | exception Baton_sim.Bus.Timeout _ -> ()
            | exception Not_found -> ())
          | None ->
            (* Rightmost node: the remaining keys lie beyond the key
               space; expand once and store them here. *)
            let top = List.fold_left max (node.Node.range.Range.hi - 1) rest in
            Node.set_range node { node.Node.range with Range.hi = top + 1 };
            Wiring.announce net node ~kind:Msg.expand;
            count_once node;
            List.iter (Sorted_store.insert node.Node.store) rest))
    in
    distribute first sorted;
    {
      keys = List.length sorted;
      nodes = !nodes;
      msgs = Baton_sim.Metrics.since metrics cp;
    }
