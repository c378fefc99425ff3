module Bus = Baton_sim.Bus
module Sorted_store = Baton_util.Sorted_store

type entry = { holder : int; keys : Sorted_store.t }

type t = { replicas : (int, entry) Hashtbl.t (* owner id -> entry *) }

let create () = { replicas = Hashtbl.create 256 }

let replica_count t = Hashtbl.length t.replicas

let holder_of t owner =
  Option.map (fun e -> e.holder) (Hashtbl.find_opt t.replicas owner)

let adjacent_holder (owner : Node.t) =
  match (Node.adjacent owner `Right, Node.adjacent owner `Left) with
  | Some a, _ | None, Some a -> Some a.Link.peer
  | None, None -> None

let sync_one t net (owner : Node.t) =
  match adjacent_holder owner with
  | None -> false (* a single-peer network has nowhere to replicate *)
  | Some holder -> (
    match Bus.post (Net.bus net) ~src:owner.Node.id ~dst:holder ~kind:Msg.balance with
    | () | (exception Bus.Unreachable _) | (exception Bus.Timeout _) ->
      (* The copy travels either way; an unreachable holder simply
         yields a dead replica that recover will skip. *)
      Hashtbl.replace t.replicas owner.Node.id
        { holder; keys = Sorted_store.of_list (Sorted_store.to_list owner.Node.store) };
      true)

let sync_all t net =
  Hashtbl.reset t.replicas;
  List.fold_left
    (fun msgs owner -> if sync_one t net owner then msgs + 1 else msgs)
    0 (Net.peers net)

let on_insert t net ~owner key =
  match Hashtbl.find_opt t.replicas owner.Node.id with
  | Some e -> (
    match Bus.post (Net.bus net) ~src:owner.Node.id ~dst:e.holder ~kind:Msg.balance with
    | () -> Sorted_store.insert e.keys key
    | exception Bus.Unreachable _ -> ()
    | exception Bus.Timeout _ -> ())
  | None -> ignore (sync_one t net owner)

let recover t net ~dead =
  match Hashtbl.find_opt t.replicas dead with
  | None -> 0
  | Some e ->
    Hashtbl.remove t.replicas dead;
    (match Net.peer_opt net e.holder with
    | Some holder when not (Bus.is_failed (Net.bus net) e.holder) ->
      let keys = Sorted_store.to_list e.keys in
      let restored = ref 0 in
      List.iter
        (fun k ->
          (* Routing can transiently dead-end while many failures are
             outstanding; retry once from another origin and skip the
             key if the network is still too damaged. *)
          match Update.insert net ~from:holder k with
          | _ -> incr restored
          | exception Search.Routing_stuck _ -> (
            match Update.insert net ~from:(Net.random_peer net) k with
            | _ -> incr restored
            | exception Search.Routing_stuck _ -> ()))
        keys;
      !restored
    | Some _ | None -> 0)

let forget t owner = Hashtbl.remove t.replicas owner
