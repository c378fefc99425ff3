module Bus = Baton_sim.Bus
module Metrics = Baton_sim.Metrics
module Sorted_store = Baton_util.Sorted_store

type result = {
  node : Node.t;
  found : bool;
  keys : int list;
  hops : int;
  msgs : int;
  retries : int;
  nodes_visited : int;
  complete : bool;
  holes : (int * int) list;
  cached : bool;
}

exception Routing_stuck of int

(* Generous budget: height is <= 1.44 log2 N and each hop halves the
   remaining distance; the budget is only consumed faster when routing
   around stale links. *)
let hop_budget net = 64 + (4 * (1 + Net.size net))

(* Ordered candidate next hops towards [v] from [node], per the
   paper's algorithm: the farthest admissible routing-table neighbour
   first, then the nearer admissible sideways entries, then the child
   and adjacent node on the target's side. An empty list means [node]
   is the boundary node that would expand for out-of-range values
   (Section IV-C). *)
let candidates (node : Node.t) v =
  let side = if Range.is_left_of node.Node.range v then `Right else `Left in
  let admissible (i : Link.info) =
    match side with
    | `Right -> i.Link.range.Range.lo <= v
    | `Left -> i.Link.range.Range.hi > v
  in
  let sideways =
    Routing_table.entries (Node.table node side)
    |> List.rev_map snd
    |> List.filter admissible
  in
  let structural =
    List.filter_map
      (fun l -> l)
      [ Node.child node side; Node.adjacent node side ]
  in
  sideways @ structural

(* [node] left the network, handing its keys on, while an operation
   waited at it (a hop, a timeout, a link rebuild, a cache probe). *)
let departed net (node : Node.t) =
  match Net.peer_opt net node.Node.id with Some n -> n != node | None -> true

let exact_walk net ~kind ~from v =
  let budget = hop_budget net in
  (* [tried] are the peers that timed out from the current node on this
     visit; it resets whenever a hop succeeds. A dead (unreachable)
     peer is handled the stronger way: drop the link and reconstitute
     the missing links through the surviving neighbourhood, so the
     detour costs messages exactly as the paper predicts.

     [arrived] tracks whether the current node was entered via a
     delivered message (false only for the origin, or after every
     forward path from a node went silent): the heat layer promotes the
     terminal hop to [serve] only when a message was actually handled
     there. *)
  let rec loop (node : Node.t) hops ~tried ~arrived =
    if Range.contains node.Node.range v then (node, hops, arrived)
    else if hops > budget then raise (Routing_stuck hops)
    else
      match candidates node v with
      | [] -> (node, hops, arrived)
      | primary -> (
        let fresh (i : Link.info) = not (List.mem i.Link.peer tried) in
        (* When every forward link has timed out, escape upwards via
           the parent — one more of Section III-D's alternative paths —
           before declaring the neighbourhood silent. *)
        let escape =
          match Node.parent node with
          | Some p when tried <> [] -> [ p ]
          | Some _ | None -> []
        in
        match List.filter fresh (primary @ escape) with
        | [] ->
          (* Every alternative timed out too. Treat the silent peers
             like dead ones: drop them, rebuild through survivors, and
             route on. *)
          List.iter (Node.drop_links_for_peer node) tried;
          Wiring.rebuild_links ~skip_failed:true net node ~kind;
          resume node (hops + 1) ~tried:[] ~arrived
        | target :: _ -> (
        match Net.send net ~src:node.Node.id ~dst:target.Link.peer ~kind with
        | next -> loop next (hops + 1) ~tried:[] ~arrived:true
        | exception Bus.Unreachable dead ->
          (* Fault tolerance (Section III-D): drop the dead link,
             reconstitute the missing links through the surviving
             neighbourhood, and route on; the detour costs messages. *)
          Failure.observe_unreachable net ~observer:node dead;
          Node.drop_links_for_peer node dead;
          Wiring.rebuild_links ~skip_failed:true net node ~kind;
          resume node (hops + 1) ~tried:[] ~arrived
        | exception Bus.Timeout silent ->
          (* The peer may be alive behind a lossy link: keep the link,
             file a suspicion, and try the next-best candidate. *)
          Failure.observe_timeout net ~observer:node silent;
          resume node (hops + 1) ~tried:(silent :: tried) ~arrived
        | exception Not_found ->
          (* The target peer left the network and the link is stale. *)
          Node.drop_links_for_peer node target.Link.peer;
          Wiring.rebuild_links ~skip_failed:true net node ~kind;
          resume node (hops + 1) ~tried:[] ~arrived))
  (* The walk waited at [node] (a failed hop, a link rebuild, or the
     cache probe before it started) and [node] may have left meanwhile:
     its stale range must not answer for [v]. *)
  and resume node hops ~tried ~arrived =
    if departed net node then raise (Routing_stuck hops)
    else loop node hops ~tried ~arrived
  in
  resume from 0 ~tried:[] ~arrived:false

(* --- Adaptive route cache ------------------------------------------ *)

(* Consult the querying peer's route cache for a shortcut covering [v].
   A remembered entry is only a hint: the probe is a real (auxiliary)
   message, validated at the receiver against its *current* range — the
   positional epoch stored in the entry tracks how fresh the hint was,
   and announcements refresh it, but delivery-time validation is what
   makes a shortcut safe. Any failure of the probe evicts the entry and
   falls back to tree routing; the probe's cost stays paid. *)
let cache_consult net ~(from : Node.t) v =
  match Net.route_cache_capacity net with
  | None -> None
  | Some _ when Range.contains from.Node.range v -> None
  | Some _ -> (
    match Route_cache.find from.Node.cache v with
    | None ->
      Net.event net Msg.ev_cache_miss;
      None
    | Some entry -> (
      let stale () =
        Route_cache.evict_peer from.Node.cache entry.Route_cache.peer;
        Net.event net Msg.ev_cache_stale;
        None
      in
      match
        Net.send net ~src:from.Node.id ~dst:entry.Route_cache.peer
          ~kind:Msg.cache_probe
      with
      | node ->
        if Range.contains node.Node.range v then begin
          Net.event net Msg.ev_cache_hit;
          (* Validated delivery doubles as a refresh. *)
          Route_cache.refresh_peer from.Node.cache ~peer:node.Node.id
            ~range:node.Node.range ~epoch:node.Node.epoch;
          Some node
        end
        else begin
          (* The receiver's range moved: it answers with an explicit
             invalidation so the origin drops the shortcut. *)
          (try
             Net.send_raw net ~src:node.Node.id ~dst:from.Node.id
               ~kind:Msg.cache_invalid
           with Bus.Unreachable _ | Bus.Timeout _ -> ());
          stale ()
        end
      | exception Bus.Unreachable dead ->
        Failure.observe_unreachable net ~observer:from dead;
        stale ()
      | exception Bus.Timeout silent ->
        Failure.observe_timeout net ~observer:from silent;
        stale ()
      | exception Not_found -> stale ()))

(* After a successful multi-hop walk, remember the destination. A
   single-hop walk is not worth caching (the shortcut could not beat
   it), and the entry is only useful if the destination actually covers
   the key. Local bookkeeping — no message. *)
let cache_learn net ~(from : Node.t) (dest : Node.t) v ~hops =
  match Net.route_cache_capacity net with
  | None -> ()
  | Some capacity ->
    if hops >= 2 && dest.Node.id <> from.Node.id
       && Range.contains dest.Node.range v
    then begin
      let evicted =
        Route_cache.remember from.Node.cache ~capacity
          {
            Route_cache.peer = dest.Node.id;
            range = dest.Node.range;
            epoch = dest.Node.epoch;
          }
      in
      for _ = 1 to evicted do
        Net.event net Msg.ev_cache_evict
      done
    end

(* Exact routing with the cache consulted first: a validated shortcut
   answers in one (auxiliary) hop; otherwise the tree walk runs and its
   destination is remembered. *)
let exact_routed net ~kind ~from v =
  match cache_consult net ~from v with
  | Some node ->
    (* The validated probe — booked [aux] at [node] — terminated the
       routing step there: promote it to a serve. *)
    Net.heat_serve net ~peer:node.Node.id ~kind:Msg.cache_probe;
    (node, 1, true)
  | None ->
    let node, hops, arrived = exact_walk net ~kind ~from v in
    cache_learn net ~from node v ~hops;
    (* The walk's final delivered hop carried the operation to its
       terminal node (even a negative answer is served there). Walks
       that never delivered into the terminal node — zero hops, or a
       neighbourhood gone silent — promote nothing. *)
    if arrived then Net.heat_serve net ~peer:node.Node.id ~kind;
    (node, hops, false)

(* Wrap an operation so the result reports its true bus cost: protocol
   messages (the paper's metric) plus auxiliary cache traffic, and the
   retransmissions hidden inside them. *)
let measured net f =
  let m = Net.metrics net in
  let cp = Metrics.checkpoint m in
  let r = f () in
  {
    r with
    msgs = Metrics.since m cp + Metrics.aux_since m cp;
    retries = Metrics.event_since m cp Msg.ev_retry;
  }

(* A standalone exact-match query is its own episode; walks on behalf
   of a larger operation (range locate, insert, delete) belong to that
   operation's episode instead. *)
let exact ?(kind = Msg.search_exact) net ~from v =
  let run () =
    measured net (fun () ->
        let node, hops, cached = exact_routed net ~kind ~from v in
        (* The single answer is authoritative only when the answering
           node actually owns [v]. Landing elsewhere — the boundary
           node for out-of-range values, or a stranded node when
           failures severed the path to the owner — is reported as an
           incomplete answer with the searched point as its hole, so
           callers (and the consistency oracle) can tell "definitely
           absent" from "could not be determined". *)
        let owns = Range.contains node.Node.range v in
        (* Demand observability: the searched key heats the sketch and
           histogram either way; the serving peer's decayed counter
           bumps only when it actually owns the answer. *)
        Net.heat_access net ~peer:(if owns then node.Node.id else -1) v;
        {
          node;
          found = owns;
          keys = [];
          hops;
          msgs = 0;
          retries = 0;
          nodes_visited = 1;
          complete = owns;
          holes = (if owns then [] else [ (v, v + 1) ]);
          cached;
        })
  in
  if String.equal kind Msg.search_exact then
    Net.with_op net ~kind:Msg.op_exact run
  else run ()

let lookup net ~from v =
  let r = exact net ~from v in
  let found = Sorted_store.mem r.node.Node.store v in
  { r with found; keys = (if found then [ v ] else []) }

(* What one directional adjacent-link sweep produces; opaque to
   callers, who only thread it through a [par] runner. *)
type sweep_outcome = int list list * int * int * (int * int) list

type par = (unit -> sweep_outcome) -> (unit -> sweep_outcome) -> sweep_outcome * sweep_outcome

(* Collect matching keys from one direction of adjacent links, starting
   at (and excluding) [node]. Returns (keys in visit order, peers
   visited, messages paid, unreachable sub-intervals). A dead or silent
   adjacent peer no longer aborts the scan: the current node drops the
   link, bridges the gap through its surviving neighbourhood, and
   carries on — recording the skipped peer's cached range as a *hole*
   when it intersected the query, so callers learn not just that the
   answer is partial but exactly which sub-interval is missing. *)
let sweep net (node : Node.t) ~seen side ~lo ~hi =
  let keys = ref [] and visited = ref 0 and msgs = ref 0 in
  (* Unreachable sub-intervals, half-open and clipped to the query;
     overlap-merged by the caller. *)
  let holes = ref [] in
  let add_hole a b =
    let a = max a lo and b = min b (hi + 1) in
    if a < b then holes := (a, b) :: !holes
  in
  let continue (n : Node.t) =
    match side with
    | `Right -> Range.is_left_of n.Node.range hi
    | `Left -> lo < n.Node.range.Range.lo
  in
  (* Everything this direction still owes beyond range [r]. *)
  let rest_of_query (r : Range.t) =
    match side with
    | `Right -> add_hole r.Range.hi (hi + 1)
    | `Left -> add_hole lo r.Range.lo
  in
  (* [seen] is [n]'s range when its keys were read. While the sweep
     waits (for a hop, a link rebuild, or the other sweep), membership
     changes can move [n]'s range: a departing neighbour hands its keys
     to [n], a joining one takes part of them. Read what [n] gained
     ahead of [seen] (what it gained behind was read already), mark
     what it lost between [seen] and its range now as a hole, and
     return what the sweep has now read. If [n] itself departed, its
     keys went to a successor this sweep cannot name, and [seen] is all
     it has read. *)
  let read_gains (n : Node.t) (seen : Range.t) =
    let r = n.Node.range in
    if r == seen || departed net n then seen
    else begin
      let ahead k =
        match side with
        | `Right -> k >= seen.Range.hi
        | `Left -> k < seen.Range.lo
      in
      (match List.filter ahead (Sorted_store.keys_in n.Node.store ~lo ~hi) with
      | [] -> ()
      | gained -> keys := gained :: !keys);
      (match side with
      | `Right -> add_hole seen.Range.hi r.Range.lo
      | `Left -> add_hole r.Range.hi seen.Range.lo);
      r
    end
  in
  let rec go (n : Node.t) ~seen bridges =
    (* A departed [n]: what lies beyond [seen] is a hole. *)
    if departed net n then rest_of_query seen
    else step n ~seen:(read_gains n seen) bridges
  and step (n : Node.t) ~seen bridges =
    if continue n then
      match Node.adjacent n side with
      | None ->
        (* The chain ends while the query interval is still open: a
           severed adjacency that no rebuild restored. The silent
           truncation used to claim completeness; the remainder is a
           hole. *)
        rest_of_query n.Node.range
      | Some next -> (
        let lost_data () =
          if Range.intersects next.Link.range ~lo ~hi then
            add_hole next.Link.range.Range.lo next.Link.range.Range.hi
        in
        let bridge ~data_lost =
          if data_lost then lost_data ();
          Node.drop_links_for_peer n next.Link.peer;
          if bridges < 2 then begin
            Wiring.rebuild_links ~skip_failed:true net n
              ~kind:Msg.search_range;
            go n ~seen (bridges + 1)
          end
          else
            (* Give up bridging from here: whatever lies beyond is
               unreachable in this direction. *)
            rest_of_query n.Node.range
        in
        match
          Net.send net ~src:n.Node.id ~dst:next.Link.peer
            ~kind:Msg.search_range
        with
        | next_node ->
          let read = read_gains n seen in
          incr msgs;
          incr visited;
          (* Each sweep hop serves its slice of the range: promote the
             delivered hop from [route]. *)
          Net.heat_serve net ~peer:next_node.Node.id ~kind:Msg.search_range;
          (* Live ranges tile the domain; a hole between consecutive
             ranges is a crashed peer whose links an earlier detour
             already spliced around. Its keys died with it, so a gap
             intersecting the query makes the answer partial even
             though no send failed here. *)
          let gap_lo, gap_hi =
            match side with
            | `Right -> (read.Range.hi, next_node.Node.range.Range.lo)
            | `Left -> (next_node.Node.range.Range.hi, read.Range.lo)
          in
          if gap_lo < gap_hi then add_hole gap_lo gap_hi;
          keys := Sorted_store.keys_in next_node.Node.store ~lo ~hi :: !keys;
          step next_node ~seen:next_node.Node.range 0
        | exception Bus.Unreachable dead ->
          (* The peer is gone and its data with it. *)
          Failure.observe_unreachable net ~observer:n dead;
          bridge ~data_lost:true
        | exception Bus.Timeout silent ->
          (* Possibly alive behind a lossy link; its data may exist but
             cannot be fetched now, so the answer is partial. *)
          Failure.observe_timeout net ~observer:n silent;
          bridge ~data_lost:true
        | exception Not_found ->
          (* Departed gracefully: its data moved to a survivor still on
             the chain (perhaps [n] itself), nothing is lost. *)
          bridge ~data_lost:false)
  in
  go node ~seen 0;
  (!keys, !visited, !msgs, !holes)

let range_walk ?par net ~from ~lo ~hi =
  (* Find any node intersecting the interval, then per the paper
     "proceed left and/or right to cover the remainder of the searched
     range" along adjacent links. We aim the locate step at the
     interval midpoint so the two directional sweeps are balanced:
     they are independent of each other, and under a [par] runner (the
     concurrent runtime's fork-join) they cover their subranges in
     parallel — the paper's [O(log N + X)] is a critical-path bound —
     while sending exactly the messages the sequential order sends. *)
  let mid = lo + ((hi - lo) / 2) in
  let locate aim = exact_routed net ~kind:Msg.search_range ~from aim in
  let node, hops, cached =
    (* A dead owner of the aim point makes the locate walk ping-pong
       between its surviving neighbours until the budget runs out; the
       messages are spent (and counted) — fall back to aiming at the
       interval's ends, whose owners the sweeps can bridge from. *)
    match locate mid with
    | outcome -> outcome
    | exception Routing_stuck h1 -> (
      match locate lo with
      | node, hops, cached -> (node, hops + h1, cached)
      | exception Routing_stuck h2 ->
        let node, hops, cached = locate hi in
        (node, hops + h1 + h2, cached))
  in
  let here = Sorted_store.keys_in node.Node.store ~lo ~hi in
  let seen = node.Node.range in
  (* One access per range operation, recorded at the first serving
     node; the histogram heats every overlapped bucket. *)
  Net.heat_access_range net ~peer:node.Node.id ~lo ~hi;
  let sweep_left () = sweep net node ~seen `Left ~lo ~hi in
  let sweep_right () = sweep net node ~seen `Right ~lo ~hi in
  let ( (left_keys, left_visited, left_msgs, left_holes),
        (right_keys, right_visited, right_msgs, right_holes) ) =
    match par with
    | None ->
      let l = sweep_left () in
      (l, sweep_right ())
    | Some p -> p sweep_left sweep_right
  in
  (* Each sweep prepends per-node blocks as it walks outwards, so the
     left sweep's list is already ascending (farthest-left block ends
     up first) while the right sweep's needs reversing. *)
  let keys =
    List.concat left_keys @ here @ List.concat (List.rev right_keys)
  in
  (* Normalize the holes: ascending, overlaps merged (the same dead
     peer can surface twice — once from its stale link range, once as
     the tiling gap the detour hopped over). *)
  let holes =
    let rec merge = function
      | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
        merge ((a1, max b1 b2) :: rest)
      | h :: rest -> h :: merge rest
      | [] -> []
    in
    merge (List.sort compare (left_holes @ right_holes))
  in
  {
    node;
    found = keys <> [];
    keys;
    hops = hops + left_msgs + right_msgs;
    msgs = 0;
    retries = 0;
    nodes_visited = 1 + left_visited + right_visited;
    complete = holes = [];
    holes;
    cached;
  }

let range ?par net ~from ~lo ~hi =
  if lo > hi then invalid_arg "Search.range: lo > hi";
  Net.with_op net ~kind:Msg.op_range (fun () ->
      measured net (fun () -> range_walk ?par net ~from ~lo ~hi))
