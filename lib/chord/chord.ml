module Id = Id
module Bus = Baton_sim.Bus
module Metrics = Baton_sim.Metrics
module Rng = Baton_util.Rng
module Dyn_array = Baton_util.Dyn_array

type node = {
  peer : int;  (* bus id *)
  ring : int;  (* position on the identifier ring *)
  mutable succ : int;  (* peer id of the ring successor *)
  mutable pred : int option;  (* peer id of the ring predecessor *)
  fingers : int option array;  (* slot i caches successor(ring + 2^i) *)
  keys : int Dyn_array.t;  (* stored data keys *)
}

type t = {
  bus : Bus.t;
  peers : (int, node) Hashtbl.t;
  rings : (int, int) Hashtbl.t;  (* ring id -> peer id *)
  id_list : int Dyn_array.t;  (* dense id array for O(1) random pick *)
  id_index : (int, int) Hashtbl.t;
  rng : Rng.t;
  mutable next_peer : int;
}

type join_stats = { peer : int; search_msgs : int; update_msgs : int }
type leave_stats = { search_msgs : int; update_msgs : int }

let k_search = "chord.search"
let k_join_search = "chord.join.search"
let k_join_update = "chord.join.update"
let k_leave_update = "chord.leave.update"
let k_insert = "chord.insert"
let k_delete = "chord.delete"
let k_transfer = "chord.transfer"

let create ?(seed = 42) () =
  {
    bus = Bus.create ();
    peers = Hashtbl.create 4096;
    rings = Hashtbl.create 4096;
    id_list = Dyn_array.create ();
    id_index = Hashtbl.create 4096;
    rng = Rng.create seed;
    next_peer = 0;
  }

let size t = Hashtbl.length t.peers
let metrics t = Bus.metrics t.bus
let bus t = t.bus
let peer t id = Hashtbl.find t.peers id

let peer_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.peers [] |> List.sort compare |> Array.of_list

let random_peer_id t =
  if Dyn_array.length t.id_list = 0 then
    invalid_arg "Chord.random_peer_id: empty network";
  Dyn_array.get t.id_list (Rng.int t.rng (Dyn_array.length t.id_list))

(* A fresh, unoccupied ring position for a new peer (hash collisions at
   10^4 peers on a 2^24 ring are rare but possible). *)
let fresh_ring t bus_id =
  let rec probe salt =
    let candidate = (Id.of_peer (bus_id + (salt * 7919)) + salt) land (Id.ring_size - 1) in
    if Hashtbl.mem t.rings candidate then probe (salt + 1) else candidate
  in
  probe 0

let fresh_node t =
  let bus_id = t.next_peer in
  t.next_peer <- bus_id + 1;
  let ring = fresh_ring t bus_id in
  {
    peer = bus_id;
    ring;
    succ = bus_id;
    pred = None;
    fingers = Array.make Id.bits None;
    keys = Dyn_array.create ();
  }

let register t (n : node) =
  Hashtbl.add t.peers n.peer n;
  Hashtbl.add t.rings n.ring n.peer;
  Hashtbl.replace t.id_index n.peer (Dyn_array.length t.id_list);
  Dyn_array.push t.id_list n.peer

let unregister t (n : node) =
  Hashtbl.remove t.peers n.peer;
  Hashtbl.remove t.rings n.ring;
  match Hashtbl.find_opt t.id_index n.peer with
  | Some i ->
    let last = Dyn_array.pop t.id_list in
    if last <> n.peer then begin
      Dyn_array.set t.id_list i last;
      Hashtbl.replace t.id_index last i
    end;
    Hashtbl.remove t.id_index n.peer
  | None -> ()

let bootstrap t =
  if size t <> 0 then invalid_arg "Chord.bootstrap: network not empty";
  let n = fresh_node t in
  n.succ <- n.peer;
  n.pred <- Some n.peer;
  Array.iteri (fun i _ -> n.fingers.(i) <- Some n.peer) n.fingers;
  register t n;
  n

let send t ~src ~dst ~kind =
  Bus.send t.bus ~src ~dst ~kind;
  peer t dst

(* Highest finger strictly between n and the target id. *)
let closest_preceding_finger t (n : node) id =
  let rec scan i =
    if i < 0 then None
    else
      match n.fingers.(i) with
      | Some fid when Hashtbl.mem t.peers fid ->
        let f = peer t fid in
        if Id.in_open f.ring ~lo:n.ring ~hi:id then Some fid else scan (i - 1)
      | Some _ | None -> scan (i - 1)
  in
  scan (Id.bits - 1)

(* Iterative find_successor, one message per hop. *)
let find_successor t ~(from : node) id ~kind =
  let hops = ref 0 in
  let rec loop n =
    let s = peer t n.succ in
    if Id.in_open_closed id ~lo:n.ring ~hi:s.ring then begin
      if s.peer <> n.peer then begin
        incr hops;
        ignore (send t ~src:n.peer ~dst:s.peer ~kind)
      end;
      s
    end
    else
      match closest_preceding_finger t n id with
      | Some next when next <> n.peer ->
        incr hops;
        loop (send t ~src:n.peer ~dst:next ~kind)
      | Some _ | None ->
        if s.peer = n.peer then n
        else begin
          incr hops;
          loop (send t ~src:n.peer ~dst:s.peer ~kind)
        end
  in
  let result = loop from in
  (result, !hops)

let successor_node t (n : node) = peer t n.succ
let pred_node t (n : node) = Option.map (peer t) n.pred

let join t =
  if size t = 0 then
    let n = bootstrap t in
    { peer = n.peer; search_msgs = 0; update_msgs = 0 }
  else begin
    let via = peer t (random_peer_id t) in
    let n = fresh_node t in
    let cp = Metrics.checkpoint (metrics t) in
    let s, search_msgs = find_successor t ~from:via n.ring ~kind:k_join_search in
    let cp_update = Metrics.checkpoint (metrics t) in
    register t n;
    (* Splice into the ring. *)
    let p = match pred_node t s with Some p -> p | None -> s in
    n.succ <- s.peer;
    n.pred <- Some p.peer;
    ignore (send t ~src:n.peer ~dst:s.peer ~kind:k_join_update);
    s.pred <- Some n.peer;
    ignore (send t ~src:n.peer ~dst:p.peer ~kind:k_join_update);
    p.succ <- n.peer;
    (* Take over the keys in (pred, n]. *)
    ignore (send t ~src:s.peer ~dst:n.peer ~kind:k_transfer);
    let keep = Dyn_array.create () in
    Dyn_array.iter
      (fun key ->
        if Id.in_open_closed (Id.of_key key) ~lo:p.ring ~hi:n.ring then
          Dyn_array.push n.keys key
        else Dyn_array.push keep key)
      s.keys;
    Dyn_array.clear s.keys;
    Dyn_array.append_all s.keys keep;
    (* Initialise the finger table, reusing the previous finger when the
       next start falls inside its span (the classic O(log^2 N) join). *)
    n.fingers.(0) <- Some s.peer;
    for i = 1 to Id.bits - 1 do
      let start = Id.add_pow n.ring i in
      let prev = Option.get n.fingers.(i - 1) in
      let prev_ring = (peer t prev).ring in
      if Id.in_open_closed start ~lo:n.ring ~hi:prev_ring then
        n.fingers.(i) <- Some prev
      else begin
        let f, _ = find_successor t ~from:n start ~kind:k_join_update in
        n.fingers.(i) <- Some f.peer
      end
    done;
    (* update_others: every node whose finger i now spans n must point
       at n. Find the last node at or before n - 2^i, then cascade
       backwards through predecessors while the update applies (the
       classic update_finger_table recursion). *)
    for i = 0 to Id.bits - 1 do
      let target = (n.ring - (1 lsl i)) land (Id.ring_size - 1) in
      let holder, _ = find_successor t ~from:n target ~kind:k_join_update in
      let holder =
        match pred_node t holder with
        | Some p when holder.ring <> target -> p
        | _ -> holder
      in
      let rec cascade (h : node) =
        if h.peer <> n.peer then begin
          let start = Id.add_pow h.ring i in
          let applies =
            match h.fingers.(i) with
            | Some fid when Hashtbl.mem t.peers fid ->
              let f = peer t fid in
              (* n falls in [start, current finger). *)
              n.ring = start || Id.in_open n.ring ~lo:((start - 1) land (Id.ring_size - 1)) ~hi:f.ring
            | Some _ | None -> true
          in
          if applies then begin
            ignore (send t ~src:n.peer ~dst:h.peer ~kind:k_join_update);
            h.fingers.(i) <- Some n.peer;
            match pred_node t h with Some p -> cascade p | None -> ()
          end
        end
      in
      cascade holder
    done;
    {
      peer = n.peer;
      search_msgs;
      update_msgs = Metrics.since (metrics t) cp_update;
    }
    |> fun stats ->
    ignore cp;
    stats
  end

let leave t id =
  let (n : node) = peer t id in
  let m = metrics t in
  let cp = Metrics.checkpoint m in
  if n.succ = n.peer then begin
    (* Last node. *)
    unregister t n;
    { search_msgs = 0; update_msgs = 0 }
  end
  else begin
    let s = successor_node t n in
    let p = match pred_node t n with Some p -> p | None -> s in
    (* Hand keys to the successor; splice the ring. *)
    ignore (send t ~src:n.peer ~dst:s.peer ~kind:k_transfer);
    Dyn_array.append_all s.keys n.keys;
    ignore (send t ~src:n.peer ~dst:p.peer ~kind:k_leave_update);
    p.succ <- s.peer;
    ignore (send t ~src:n.peer ~dst:s.peer ~kind:k_leave_update);
    s.pred <- Some p.peer;
    unregister t n;
    (* Repair fingers that pointed at the leaver: for each i, find the
       last node at or before n - 2^i and cascade backwards while the
       finger still names the departed peer. *)
    for i = 0 to Id.bits - 1 do
      let target = (n.ring - (1 lsl i)) land (Id.ring_size - 1) in
      if size t > 0 then begin
        let from = peer t s.peer in
        let holder, _ = find_successor t ~from target ~kind:k_leave_update in
        let holder =
          match pred_node t holder with
          | Some p when holder.ring <> target -> p
          | _ -> holder
        in
        let rec cascade (h : node) visited =
          if visited <= size t then
            match h.fingers.(i) with
            | Some fid when fid = n.peer ->
              ignore (send t ~src:s.peer ~dst:h.peer ~kind:k_leave_update);
              h.fingers.(i) <- Some n.succ;
              (match pred_node t h with
              | Some p when p.peer <> h.peer -> cascade p (visited + 1)
              | Some _ | None -> ())
            | Some _ | None -> ()
        in
        cascade holder 0
      end
    done;
    { search_msgs = 0; update_msgs = Metrics.since m cp }
  end

let locate t key ~kind =
  let from = peer t (random_peer_id t) in
  find_successor t ~from (Id.of_key key) ~kind

let insert t key =
  let node, hops = locate t key ~kind:k_insert in
  Dyn_array.push node.keys key;
  hops

let delete t key =
  let node, hops = locate t key ~kind:k_delete in
  let rec find_index i =
    if i >= Dyn_array.length node.keys then None
    else if Dyn_array.get node.keys i = key then Some i
    else find_index (i + 1)
  in
  (match find_index 0 with
  | Some i -> ignore (Dyn_array.remove node.keys i)
  | None -> ());
  hops

let lookup t key =
  let node, hops = locate t key ~kind:k_search in
  (Dyn_array.exists (fun k -> k = key) node.keys, hops)

let range_scan_cost t = size t

let check t =
  let fail fmt = Format.kasprintf failwith fmt in
  if size t = 0 then ()
  else begin
    (* The successor pointers form a single cycle over all peers. *)
    let start = peer t (random_peer_id t) in
    let seen = Hashtbl.create (size t) in
    let rec walk (n : node) steps =
      if steps > size t then fail "chord: successor cycle longer than network"
      else begin
        if Hashtbl.mem seen n.peer then ()
        else begin
          Hashtbl.add seen n.peer ();
          walk (successor_node t n) (steps + 1)
        end
      end
    in
    walk start 0;
    if Hashtbl.length seen <> size t then
      fail "chord: ring visits %d of %d peers" (Hashtbl.length seen) (size t);
    (* Predecessors invert successors; fingers point at true successors
       of their starts; keys live at the successor of their hash. *)
    let ring_ids =
      Hashtbl.fold (fun _ n acc -> n.ring :: acc) t.peers [] |> List.sort compare
    in
    let successor_of id =
      match List.find_opt (fun r -> r >= id) ring_ids with
      | Some r -> r
      | None -> List.hd ring_ids
    in
    Hashtbl.iter
      (fun _ n ->
        let s = successor_node t n in
        (match pred_node t s with
        | Some p when p.peer = n.peer -> ()
        | Some p -> fail "chord: pred(succ(%d)) = %d" n.peer p.peer
        | None -> fail "chord: %d's successor has no predecessor" n.peer);
        Array.iteri
          (fun i slot ->
            match slot with
            | Some fid -> (
              match Hashtbl.find_opt t.peers fid with
              | None -> fail "chord: %d finger %d points at dead peer %d" n.peer i fid
              | Some f ->
                let start = Id.add_pow n.ring i in
                if f.ring <> successor_of start then
                  fail "chord: %d finger %d = ring %d, expected %d" n.peer i f.ring
                    (successor_of start))
            | None -> fail "chord: %d finger %d is empty" n.peer i)
          n.fingers;
        Dyn_array.iter
          (fun key ->
            if successor_of (Id.of_key key) <> n.ring then
              fail "chord: key %d stored at ring %d, expected %d" key n.ring
                (successor_of (Id.of_key key)))
          n.keys)
      t.peers
  end
