module Bus = Baton_sim.Bus
module Metrics = Baton_sim.Metrics
module Trace = Baton_obs.Trace
module Heat = Baton_obs.Heat
module Rng = Baton_util.Rng
module Histogram = Baton_util.Histogram

module Dyn_array = Baton_util.Dyn_array

(* The position map, keyed by a position's heap index (see [key]) and
   hashed inline: one lookup takes a position straight to its
   occupant. *)
module Pos_table = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash k = k lxor (k lsr 16)
end)

(* Protocol state: everything [save] writes, so nothing here may hold a
   closure once the deferred queue is drained. *)
type state = {
  bus : Bus.t;
  peers : (int, Node.t) Hashtbl.t;
  (* Occupant of every registered position. Its nodes are the same
     records as in [peers]; [Marshal] keeps that sharing. *)
  positions : Node.t Pos_table.t;
  (* Registered ids in a dense array (plus index map) so random peer
     selection is O(1) even at 10^4 peers. *)
  id_list : int Dyn_array.t;
  id_index : (int, int) Hashtbl.t;
  rng : Rng.t;
  domain : Range.t;
  mutable next_id : int;
  mutable defer : bool;
  (* Notifications held back in defer mode, oldest first. Draining
     clears the array (dropping its backing store), so a flushed
     network holds no closure and still marshals. *)
  deferred : (unit -> unit) Dyn_array.t;
  shifts : Histogram.t;
  (* Resilient-messaging state: bounded retransmissions on Timeout and
     the per-peer suspicion counters behind lazy failure detection. *)
  mutable retry_limit : int;
  suspicions : (int, int) Hashtbl.t;
  mutable suspicion_repair : bool;
  (* Adaptive route cache: [None] disables caching network-wide and the
     per-node caches stay empty, making the disabled network
     behaviourally identical to one built before the cache existed. *)
  mutable cache_capacity : int option;
}

(* Observers and runtime seams. They hold closures, so they live apart
   from [state] and are never marshalled: [save] leaves them attached
   and [load] starts with none. Every observer is pure — it sends no
   message and consults no protocol PRNG — so installing one cannot
   change [Metrics.total]. *)
type hooks = {
  (* Causal trace collector: operations open episodes, [send_raw]
     stamps every transmitted message with a causal context. *)
  mutable tracer : Trace.t option;
  (* Demand heat: every delivered message is attributed to the handling
     peer's class by kind, and the protocol layer promotes terminal
     hops to [serve] and records key accesses. *)
  mutable heat : Heat.t option;
  (* Critical section for suspicion-triggered repairs: the driver
     installs its membership lock here so concurrent repairs serialize
     with each other and with joins/leaves. [None] runs them inline. *)
  mutable repair_serializer : ((unit -> unit) -> unit) option;
}

type t = { st : state; hooks : hooks }

let no_hooks () = { tracer = None; heat = None; repair_serializer = None }

let default_retry_limit = 3
let default_cache_capacity = 128

let create ?(seed = 42) ~domain () =
  {
    st =
      {
        bus =
          (let bus = Bus.create () in
           (* Cache traffic pays its way on the bus but accumulates apart
              from the paper's message total. *)
           List.iter (Metrics.mark_aux (Bus.metrics bus)) Msg.cache_kinds;
           bus);
        peers = Hashtbl.create 4096;
        positions = Pos_table.create 4096;
        id_list = Dyn_array.create ();
        id_index = Hashtbl.create 4096;
        rng = Rng.create seed;
        domain;
        next_id = 0;
        defer = false;
        deferred = Dyn_array.create ();
        shifts = Histogram.create ();
        retry_limit = default_retry_limit;
        suspicions = Hashtbl.create 64;
        suspicion_repair = false;
        cache_capacity = None;
      };
    hooks = no_hooks ();
  }

let bus t = t.st.bus
let metrics t = Bus.metrics t.st.bus
let rng t = t.st.rng
let domain t = t.st.domain

(* Heap index [2^level + number - 1]: injective up to
   [Position.max_level], and it fits a native int. *)
let key (pos : Position.t) = (1 lsl pos.Position.level) + pos.Position.number - 1

let size t = Hashtbl.length t.st.peers - Bus.failed_count t.st.bus
let registered t = Hashtbl.length t.st.peers

let fresh_id t =
  let id = t.st.next_id in
  t.st.next_id <- id + 1;
  id

let register t (node : Node.t) =
  if Hashtbl.mem t.st.peers node.Node.id then
    invalid_arg "Net.register: peer id already registered";
  let k = key node.Node.pos in
  if Pos_table.mem t.st.positions k then
    invalid_arg "Net.register: position occupied";
  Hashtbl.add t.st.peers node.Node.id node;
  Pos_table.add t.st.positions k node;
  Hashtbl.replace t.st.id_index node.Node.id (Dyn_array.length t.st.id_list);
  Dyn_array.push t.st.id_list node.Node.id

(* Drop [node]'s entry at its current position, if it holds one. *)
let vacate t (node : Node.t) =
  let k = key node.Node.pos in
  match Pos_table.find_opt t.st.positions k with
  | Some n when n.Node.id = node.Node.id -> Pos_table.remove t.st.positions k
  | Some _ | None -> ()

let unregister t (node : Node.t) =
  Hashtbl.remove t.st.peers node.Node.id;
  vacate t node;
  (match Hashtbl.find_opt t.st.id_index node.Node.id with
  | Some i ->
    (* Swap-remove from the dense id array. *)
    let last = Dyn_array.pop t.st.id_list in
    if last <> node.Node.id then begin
      Dyn_array.set t.st.id_list i last;
      Hashtbl.replace t.st.id_index last i
    end;
    Hashtbl.remove t.st.id_index node.Node.id
  | None -> ());
  Bus.revive t.st.bus node.Node.id

(* Check before mutating: a refused move leaves [node] where it was. *)
let reposition t (node : Node.t) pos =
  let k = key pos in
  (match Pos_table.find_opt t.st.positions k with
  | Some n when n.Node.id <> node.Node.id ->
    invalid_arg "Net.reposition: position occupied"
  | Some _ | None -> ());
  vacate t node;
  node.Node.pos <- pos;
  Node.bump_epoch node;
  Pos_table.replace t.st.positions k node

let bootstrap t =
  if Hashtbl.length t.st.peers <> 0 then
    invalid_arg "Net.bootstrap: network is not empty";
  let node = Node.create ~id:(fresh_id t) ~pos:Position.root ~range:t.st.domain in
  register t node;
  node

let peer t id = Hashtbl.find t.st.peers id
let peer_opt t id = Hashtbl.find_opt t.st.peers id

let peer_at t pos = Pos_table.find_opt t.st.positions (key pos)

let root t = peer_at t Position.root

let peers t = Hashtbl.fold (fun _ node acc -> node :: acc) t.st.peers []

(* Ascending live ids without hashing or sorting: mark every live id of
   the dense [id_list] in a byte buffer indexed by [id - lo], then emit
   the marks in order. The buffer spans the registered ids, not
   [next_id], since [register] accepts hand-made nodes with any id.
   Fresh ids keep the span near the peer count; once hand-made ids (or
   long churn at a small size) spread it wider than a few bytes per
   peer, sorting is the cheaper path. *)
let live_ids t =
  let ids = t.st.id_list and bus = t.st.bus in
  let n = Dyn_array.length ids in
  let check_failed = Bus.failed_count bus > 0 in
  let live id = not (check_failed && Bus.is_failed bus id) in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let id = Dyn_array.get ids i in
    if id < !lo then lo := id;
    if id > !hi then hi := id
  done;
  let lo = !lo and hi = !hi in
  if n = 0 then [||]
  else if hi - lo < 0 || hi - lo >= (8 * n) + 1024 then begin
    (* Sparse ids (or a span that overflows): collect and sort. *)
    let out = Dyn_array.to_list ids |> List.filter live |> Array.of_list in
    Array.sort Int.compare out;
    out
  end
  else begin
    let marks = Bytes.make (hi - lo + 1) '\000' in
    let count = ref 0 in
    for i = 0 to n - 1 do
      let id = Dyn_array.get ids i in
      if live id then begin
        Bytes.set marks (id - lo) '\001';
        incr count
      end
    done;
    let out = Array.make !count 0 in
    let j = ref 0 in
    for k = 0 to Bytes.length marks - 1 do
      if Bytes.get marks k <> '\000' then begin
        out.(!j) <- lo + k;
        incr j
      end
    done;
    out
  end

let random_peer t =
  let total = Dyn_array.length t.st.id_list in
  if total = 0 then invalid_arg "Net.random_peer: empty network";
  if Bus.failed_count t.st.bus >= total then
    invalid_arg "Net.random_peer: no live peer";
  let rec draw () =
    let id = Dyn_array.get t.st.id_list (Rng.int t.st.rng total) in
    if Bus.is_failed t.st.bus id then draw () else peer t id
  in
  draw ()

(* --- Causal tracing ------------------------------------------------ *)

let set_tracer t tr = t.hooks.tracer <- tr
let tracer t = t.hooks.tracer

(* --- Demand heat ---------------------------------------------------- *)

let set_heat t h = t.hooks.heat <- h
let heat t = t.hooks.heat

(* Default heat class of a delivered message, by kind: cache traffic
   is [Aux], tree maintenance is [Maint], everything else — the demand
   kinds (search, insert, delete) — starts as [Route] and is promoted
   to [Serve] by the protocol layer when the operation terminates at
   the receiver. *)
let heat_class kind =
  if List.mem kind Msg.cache_kinds then Heat.Aux
  else if List.mem kind Msg.maint_kinds then Heat.Maint
  else Heat.Route

(* Attribute one delivered message to its handling peer — only when an
   instrument is installed, so the uninstrumented hot path pays one
   match. *)
let heat_hop t ~dst ~kind =
  match t.hooks.heat with
  | None -> ()
  | Some h -> Heat.hop h ~peer:dst (heat_class kind)

(* Promote the hop that terminated an operation at [peer] from its
   default class to [serve]. Used by {!Search} and {!Update} at the
   points where "this peer owns the answer" becomes known. *)
let heat_serve t ~peer ~kind =
  match t.hooks.heat with
  | None -> ()
  | Some h -> Heat.promote h ~peer ~was:(heat_class kind)

let heat_access t ~peer key =
  match t.hooks.heat with None -> () | Some h -> Heat.access h ~peer key

let heat_access_range t ~peer ~lo ~hi =
  match t.hooks.heat with None -> () | Some h -> Heat.access_range h ~peer ~lo ~hi

(* Which overlay link carried a hop from [src] to [dst] — the
   classification the critical-path analysis breaks costs down by.
   Computed from the sender's links as they stand at transmission
   time. *)
let link_kind t ~src ~dst ~kind =
  if List.mem kind Msg.cache_kinds then Msg.link_cache
  else
    match peer_opt t src with
    | None -> Msg.link_other
    | Some n ->
      let is l =
        match l with
        | Some (i : Link.info) -> i.Link.peer = dst
        | None -> false
      in
      let in_table tbl =
        Option.is_some (Routing_table.find tbl (fun i -> i.Link.peer = dst))
      in
      if is (Node.parent n) then Msg.link_parent
      else if is (Node.child n `Left) || is (Node.child n `Right) then
        Msg.link_child
      else if is (Node.adjacent n `Left) || is (Node.adjacent n `Right) then
        Msg.link_adjacent
      else if in_table n.Node.left_table || in_table n.Node.right_table then
        Msg.link_sideways
      else Msg.link_other

let peer_level t id =
  match peer_opt t id with
  | Some n -> n.Node.pos.Position.level
  | None -> -1

let with_op t ~kind f =
  match t.hooks.tracer with
  | None -> f ()
  | Some tr -> Trace.with_episode tr ~op:kind f

let event t name = Metrics.event (Bus.metrics t.st.bus) name

let set_retry_limit t n =
  if n < 0 then invalid_arg "Net.set_retry_limit: negative";
  t.st.retry_limit <- n

let retry_limit t = t.st.retry_limit

let set_repair_serializer t s = t.hooks.repair_serializer <- s

(* Run a structural repair inside the installed critical section (the
   driver's membership lock), or inline when none is installed. *)
let serialize_repair t f =
  match t.hooks.repair_serializer with None -> f () | Some s -> s f

(* Retransmit on Timeout, up to [retry_limit] extra attempts. Every
   attempt passes over the bus and is counted — the paper's message
   metric stays honest under retries. Unreachable (permanent crash)
   propagates immediately: retrying a dead address cannot help and the
   protocols have dedicated detour logic for it — though discovering
   the silence still costs the sender a timeout interval under the
   runtime's clock, so the bus wait runs before the exception escapes.
   Each attempt is a [Bus.post] plus an explicit [Bus.wait], so the
   retry and give-up events are counted at the instant the attempt
   went out. *)
let send_raw t ~src ~dst ~kind =
  let ev = Bus.metrics t.st.bus in
  (* Classified once, before the first transmission: the links that
     explain the route choice are the ones in place when the sender
     picked the destination. Pure reads — tracing consults no PRNG. *)
  let link, dst_level =
    match t.hooks.tracer with
    | None -> (Msg.link_other, -1)
    | Some _ -> (link_kind t ~src ~dst ~kind, peer_level t dst)
  in
  let rec attempt k =
    (* Each attempt is its own span under the ambient parent: a retry
       is a sibling of the attempt that timed out, not its child — the
       failed attempt caused nothing downstream. *)
    let ctx, sent =
      match t.hooks.tracer with
      | None -> (None, 0.)
      | Some tr -> (Trace.next_ctx tr, Trace.time tr)
    in
    let record outcome =
      match (t.hooks.tracer, ctx) with
      | Some tr, Some ctx ->
        Trace.record tr ~ctx ~src ~dst ~msg:kind ~link ~dst_level ~sent
          ~outcome
      | _ -> ()
    in
    match Bus.post t.st.bus ~src ~dst ~kind with
    | () ->
      Bus.wait t.st.bus ~src ~dst Bus.Delivered;
      heat_hop t ~dst ~kind;
      (* Recorded after the wait, so [done_at] is the delivery instant
         under the runtime's clock; the delivered message becomes the
         ambient causal parent of whatever the receiver does next. *)
      record Trace.Delivered;
      (match (t.hooks.tracer, ctx) with
      | Some tr, Some ctx -> Trace.advance tr ctx
      | _ -> ())
    | exception Bus.Timeout _ when k < t.st.retry_limit ->
      Metrics.event ev Msg.ev_retry;
      Bus.wait t.st.bus ~src ~dst Bus.Timed_out;
      record Trace.Timed_out;
      attempt (k + 1)
    | exception (Bus.Timeout _ as e) ->
      Metrics.event ev Msg.ev_give_up;
      Bus.wait t.st.bus ~src ~dst Bus.Timed_out;
      record Trace.Timed_out;
      raise e
    | exception (Bus.Unreachable _ as e) ->
      Bus.wait t.st.bus ~src ~dst Bus.Timed_out;
      record Trace.Unreachable;
      raise e
  in
  attempt 0

let send t ~src ~dst ~kind =
  send_raw t ~src ~dst ~kind;
  peer t dst

let suspect t id =
  let n = 1 + (match Hashtbl.find_opt t.st.suspicions id with Some c -> c | None -> 0) in
  Hashtbl.replace t.st.suspicions id n;
  n

let clear_suspicion t id = Hashtbl.remove t.st.suspicions id

let set_suspicion_repair t flag = t.st.suspicion_repair <- flag
let suspicion_repair t = t.st.suspicion_repair

(* --- Route cache --------------------------------------------------- *)

let enable_route_cache ?(capacity = default_cache_capacity) t =
  if capacity <= 0 then invalid_arg "Net.enable_route_cache: capacity <= 0";
  t.st.cache_capacity <- Some capacity

let disable_route_cache t =
  t.st.cache_capacity <- None;
  (* Flush every peer's cache so a disabled network is indistinguishable
     from one where the cache never existed. *)
  Hashtbl.iter (fun _ (n : Node.t) -> Route_cache.clear n.Node.cache) t.st.peers

let route_cache_enabled t = Option.is_some t.st.cache_capacity
let route_cache_capacity t = t.st.cache_capacity

let apply_notification t ~src ~dst ~kind ~expect_pos f =
  let ev name = event t name in
  (* Notifications are one-way cache refreshes: fire-and-forget, no
     retransmission. A lost one just widens the staleness window that
     the dynamics experiment measures; it is counted as an event so the
     loss is observable instead of silent.

     In a trace they chain under the ambient causal parent like any
     other message but never *become* the parent — nothing awaits
     them. Deferred notifications run at flush time, outside the
     episode that queued them, and stay untraced. *)
  let ctx, sent =
    match t.hooks.tracer with
    | None -> (None, 0.)
    | Some tr -> (Trace.next_ctx tr, Trace.time tr)
  in
  let record outcome =
    match (t.hooks.tracer, ctx) with
    | Some tr, Some ctx ->
      Trace.record tr ~ctx ~src ~dst ~msg:kind
        ~link:(link_kind t ~src ~dst ~kind) ~dst_level:(peer_level t dst)
        ~sent ~outcome
    | _ -> ()
  in
  match peer_opt t dst with
  | None ->
    (* The destination left the network: the message is still sent (and
       counted); it is simply never acted upon. *)
    (match Bus.post t.st.bus ~src ~dst ~kind with
    | () -> record Trace.Delivered
    | exception Bus.Unreachable _ -> record Trace.Unreachable
    | exception Bus.Timeout _ -> record Trace.Timed_out);
    ev Msg.ev_notify_dropped
  | Some node -> (
    match Bus.post t.st.bus ~src ~dst ~kind with
    | () -> (
      record Trace.Delivered;
      (* The peer handled the notification (even if only to ignore a
         stale one) — attribute it. Notifications to absent peers get
         no heat: nobody handled them. *)
      heat_hop t ~dst ~kind;
      (* A peer that changed position since the message was addressed
         ignores it: the update concerns a role it no longer holds. *)
      match expect_pos with
      | Some pos when not (Position.equal node.Node.pos pos) ->
        ev Msg.ev_notify_stale
      | Some _ | None -> f node)
    | exception Bus.Unreachable _ ->
      record Trace.Unreachable;
      ev Msg.ev_notify_dropped
    | exception Bus.Timeout _ ->
      record Trace.Timed_out;
      ev Msg.ev_notify_dropped)

let notify ?expect_pos t ~src ~dst ~kind f =
  if t.st.defer then
    Dyn_array.push t.st.deferred (fun () ->
        apply_notification t ~src ~dst ~kind ~expect_pos f)
  else apply_notification t ~src ~dst ~kind ~expect_pos f

let set_defer t flag = t.st.defer <- flag
let deferring t = t.st.defer

let flush_deferred t =
  (* Notifications may enqueue follow-ups while flushing; drain fully. *)
  t.st.defer <- false;
  while not (Dyn_array.is_empty t.st.deferred) do
    let batch = Dyn_array.to_array t.st.deferred in
    Dyn_array.clear t.st.deferred;
    Array.iter (fun run -> run ()) batch
  done

let record_shift t n = Histogram.add t.st.shifts n
let shift_histogram t = t.st.shifts

(* Snapshot format: a magic string (to fail fast on foreign files)
   followed by the marshalled protocol state. Hooks are never written,
   so adding an observer never changes the format. *)
let snapshot_magic = "BATON-NET-v10"

let save t path =
  if not (Dyn_array.is_empty t.st.deferred) then
    invalid_arg "Net.save: deferred notifications pending";
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc snapshot_magic;
      Marshal.to_channel oc { t.st with bus = Bus.unhooked t.st.bus } [])

exception Incompatible_snapshot of { found : string; expected : string }

let () =
  Printexc.register_printer (function
    | Incompatible_snapshot { found; expected } ->
      Some
        (Printf.sprintf
           "Net.Incompatible_snapshot: snapshot version %S predates this \
            build (expected %S); regenerate it with the current binary"
           found expected)
    | _ -> None)

let magic_prefix = "BATON-NET-v"

(* The version tag a snapshot starts with: [magic_prefix] and the
   digits after it, read up to (not into) the marshalled state, so a
   tag of any length is reported whole. [None] if the file does not
   start with the prefix. *)
let read_magic ic =
  let n = String.length magic_prefix in
  match really_input_string ic n with
  | exception End_of_file -> None
  | prefix when prefix <> magic_prefix -> None
  | prefix ->
    let buf = Buffer.create 16 in
    Buffer.add_string buf prefix;
    let rec digits () =
      match input_char ic with
      | '0' .. '9' as c ->
        Buffer.add_char buf c;
        digits ()
      | _ -> seek_in ic (pos_in ic - 1)
      | exception End_of_file -> ()
    in
    digits ();
    Some (Buffer.contents buf)

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match read_magic ic with
      | None -> failwith "Net.load: not a BATON snapshot"
      | Some found when found <> snapshot_magic ->
        raise (Incompatible_snapshot { found; expected = snapshot_magic })
      | Some _ -> { st = (Marshal.from_channel ic : state); hooks = no_hooks () })
