(* Concurrent discrete-event runtime.

   Executes overlay operations as interleaved fibers on the simulation
   {!Engine}. The protocol code is reused unchanged: an operation runs
   as ordinary OCaml until it transmits a message, at which point the
   bus's wait hook performs an effect; the handler below
   captures the continuation and schedules its resumption when the
   engine's clock reaches the delivery instant given by the {!Latency}
   model (or the timeout interval, for messages that get no answer).
   Between suspension and resumption, other fibers run — so joins,
   leaves and queries interleave at message granularity, like on a real
   network, and an operation's completion time is its critical path,
   not its hop sum.

   Determinism: every context switch goes through the engine's event
   queue, which orders events by (time, insertion sequence) — see
   {!Baton_sim.Event_queue}. Delivery times come from the seeded
   latency model and fault decisions from the seeded fault PRNG in bus
   order, so a fixed seed fixes the entire interleaving. Nothing here
   reads wall-clock time or OS randomness. *)

module Engine = Baton_sim.Engine
module Latency = Baton_sim.Latency
module Bus = Baton_sim.Bus
module Trace = Baton_obs.Trace
module Net = Baton.Net

type t = {
  engine : Engine.t;
  latency : Latency.t;
  timeout_ms : float;
  bus : Bus.t;
  (* The BATON network whose tracer's causal state fibers carry across
     suspensions; [None] for a runtime over a bare bus. *)
  net : Net.t option;
  (* Per-destination in-flight message accounting: a message is "in
     the queue" of its destination from transmission to delivery. *)
  inflight : (int, int) Hashtbl.t;
  depth_max : (int, int) Hashtbl.t;
  mutable live_fibers : int;
}

type _ Effect.t +=
  | Wait : float -> unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t
  | Fork : (unit -> 'a) * (unit -> 'b) -> ('a * 'b) Effect.t

let default_timeout_ms = 300.

let make ~timeout_ms ?latency ~bus net =
  if timeout_ms <= 0. then invalid_arg "Runtime.create: timeout_ms <= 0";
  let latency =
    match latency with Some l -> l | None -> Latency.create ()
  in
  {
    engine = Engine.create ();
    latency;
    timeout_ms;
    bus;
    net;
    inflight = Hashtbl.create 1024;
    depth_max = Hashtbl.create 1024;
    live_fibers = 0;
  }

let create ?(timeout_ms = default_timeout_ms) ?latency net =
  make ~timeout_ms ?latency ~bus:(Net.bus net) (Some net)

let of_bus ?(timeout_ms = default_timeout_ms) ?latency bus =
  make ~timeout_ms ?latency ~bus None

let engine t = t.engine
let bus t = t.bus
let latency t = t.latency
let timeout_ms t = t.timeout_ms
let now t = Engine.now t.engine
let live_fibers t = t.live_fibers

(* --- Fiber execution ----------------------------------------------- *)

let sleep delay =
  if delay < 0. then invalid_arg "Runtime.sleep: negative delay";
  Effect.perform (Wait delay)

let both f g = Effect.perform (Fork (f, g))

let suspend register = Effect.perform (Suspend register)

(* Ambient-causality snapshot of the network's tracer: a free [None]
   without one (and always over a bare bus). Captured at every
   suspension point and reinstated at resumption, so interleaved
   operations cannot clobber each other's causal state. *)
let mark t =
  match t.net with
  | None -> None
  | Some net -> (
    match Net.tracer net with None -> None | Some tr -> Some (Trace.save tr))

let restore t m =
  match (m, t.net) with
  | Some m, Some net -> (
    match Net.tracer net with Some tr -> Trace.restore tr m | None -> ())
  | None, _ | _, None -> ()

(* Run [f] as a fiber under the effect handler. Children forked with
   [both] run under their own [exec] (the handler closes over the same
   [t]), and the parent's continuation resumes only when both are
   done. All continuations are one-shot and always resumed exactly
   once — the engine drains its queue completely — so no continuation
   is leaked.

   Every suspension point snapshots the tracer's ambient causal state
   ([mark]) and reinstates it when the fiber resumes: between
   the capture and the resumption other fibers run and move the ambient
   episode/parent to their own, so without the restore an operation's
   hops would chain into whichever trace happened to run last. Free
   (a [None]) when no tracer is installed. *)
let rec exec : type a. t -> (unit -> a) -> ((a, exn) result -> unit) -> unit =
 fun t f on_done ->
  let open Effect.Deep in
  match_with f ()
    {
      retc = (fun v -> on_done (Ok v));
      exnc = (fun e -> on_done (Error e));
      effc =
        (fun (type b) (eff : b Effect.t) ->
          match eff with
          | Wait delay ->
            Some
              (fun (k : (b, unit) continuation) ->
                let m = mark t in
                Engine.schedule t.engine ~delay (fun () ->
                    restore t m;
                    continue k ()))
          | Suspend register ->
            Some
              (fun (k : (b, unit) continuation) ->
                let m = mark t in
                (* The resumption is scheduled, not run inline, so a
                   wake-up from another fiber's stack still interleaves
                   through the deterministic event queue. *)
                register (fun () ->
                    Engine.schedule t.engine ~delay:0. (fun () ->
                        restore t m;
                        continue k ())))
          | Fork (fa, fb) ->
            Some
              (fun (k : (b, unit) continuation) ->
                (* Both children inherit the fork point's causal state —
                   their hop chains branch from the same parent span —
                   and the parent resumes with it too. *)
                let m = mark t in
                let ra = ref None and rb = ref None in
                let join () =
                  match (!ra, !rb) with
                  | Some a, Some b -> (
                    restore t m;
                    match (a, b) with
                    | Ok va, Ok vb -> continue k (va, vb)
                    | Error e, _ | _, Error e -> discontinue k e)
                  | _ -> ()
                in
                (* The left child runs first (until its first
                   suspension), then the right — a deterministic start
                   order; from then on the event queue interleaves
                   them. *)
                exec t
                  (fun () ->
                    restore t m;
                    fa ())
                  (fun r ->
                    ra := Some r;
                    join ());
                exec t
                  (fun () ->
                    restore t m;
                    fb ())
                  (fun r ->
                    rb := Some r;
                    join ()))
          | _ -> None);
    }

let spawn ?at t f ~on_done =
  t.live_fibers <- t.live_fibers + 1;
  (* The fiber body starts from the causal state at the spawn call —
     for a driver spawning top-level operations, a clean slate — not
     from whatever episode is ambient when the engine reaches it. *)
  let m = mark t in
  let fiber () =
    exec t
      (fun () ->
        restore t m;
        f ())
      (fun r ->
        t.live_fibers <- t.live_fibers - 1;
        on_done r)
  in
  match at with
  | None -> Engine.schedule t.engine ~delay:0. fiber
  | Some time -> Engine.schedule_at t.engine ~time fiber

(* --- Hop suspension ------------------------------------------------- *)

let bump tbl key delta =
  let v = delta + Option.value ~default:0 (Hashtbl.find_opt tbl key) in
  Hashtbl.replace tbl key v;
  v

let hop_wait t ~src ~dst (outcome : Bus.outcome) =
  match outcome with
  | Delivered ->
    (* A gray endpoint stretches the delivery: the pair's base latency
       times the worse endpoint's slowdown factor (1.0 when neither end
       is gray — see [Bus.latency_factor]). *)
    let delay =
      Latency.of_pair t.latency ~src ~dst *. Bus.latency_factor t.bus ~src ~dst
    in
    let d = bump t.inflight dst 1 in
    if d > Option.value ~default:0 (Hashtbl.find_opt t.depth_max dst) then
      Hashtbl.replace t.depth_max dst d;
    Effect.perform (Wait delay);
    ignore (bump t.inflight dst (-1) : int)
  | Timed_out ->
    (* The sender learns nothing until its retransmission timer fires;
       the destination's queue is not charged. *)
    Effect.perform (Wait t.timeout_ms)

(* Drive every spawned fiber to completion. The bus's wait hook is
   installed only for the duration of the run: outside it (setup,
   teardown, synchronous use of the same overlay) operations stay
   synchronous. *)
let run t =
  Bus.set_wait t.bus (Some (hop_wait t));
  Fun.protect
    ~finally:(fun () -> Bus.set_wait t.bus None)
    (fun () -> Engine.run t.engine)

(* --- Queue-depth statistics ---------------------------------------- *)

let queue_depth_max t =
  Hashtbl.fold (fun _ d acc -> max d acc) t.depth_max 0

let queue_depth_mean t =
  let n = Hashtbl.length t.depth_max in
  if n = 0 then 0.
  else
    float_of_int (Hashtbl.fold (fun _ d acc -> acc + d) t.depth_max 0)
    /. float_of_int n

(* --- Cooperative readers-writer lock -------------------------------- *)

(* Membership changes (join, leave, repair) are multi-step protocols
   that the paper runs one at a time; racing two of them against each
   other at hop granularity would interleave *mutations*, which no
   locking exists for at the protocol level. The workload driver
   serializes them on the exclusive side. BATON's queries race them
   freely — the staleness its routing layer tolerates — while the
   comparison overlays, whose protocols assume a quiescent membership,
   run their queries and inserts on the shared side.

   Admission follows arrival order exactly. An arrival takes the lock
   directly only when nobody is queued and no handed-off grant is still
   waiting to resume; otherwise it queues. A release hands the lock to
   the longest compatible prefix of the queue, and a grant, when it
   resumes, admits whatever compatible arrivals queued behind it in the
   meantime. Resumptions go through the engine's FIFO queue, so
   operations proceed — and draw from their overlay's PRNG — in the
   order they arrived. *)
module Lock = struct
  type side = Shared | Exclusive

  type nonrec t = {
    mutable writer : bool;
    mutable readers : int;
    mutable pending : int;  (* grants handed off, not yet resumed *)
    waiters : (side * (unit -> unit)) Queue.t;
  }

  let create () =
    { writer = false; readers = 0; pending = 0; waiters = Queue.create () }

  let held l = l.writer || l.readers > 0

  let fits l = function Shared -> not l.writer | Exclusive -> not (held l)

  let take l = function
    | Shared -> l.readers <- l.readers + 1
    | Exclusive -> l.writer <- true

  let rec admit l =
    match Queue.peek_opt l.waiters with
    | Some (side, resume) when fits l side ->
      ignore (Queue.pop l.waiters);
      take l side;
      l.pending <- l.pending + 1;
      resume ();
      admit l
    | Some _ | None -> ()

  let acquire_side l side =
    if l.pending = 0 && Queue.is_empty l.waiters && fits l side then take l side
    else begin
      suspend (fun resume -> Queue.add (side, resume) l.waiters);
      l.pending <- l.pending - 1;
      admit l
    end

  let acquire l = acquire_side l Exclusive

  let release l =
    if l.writer then l.writer <- false
    else if l.readers > 0 then l.readers <- l.readers - 1
    else invalid_arg "Runtime.Lock.release: not held";
    admit l

  let with_side l side f =
    acquire_side l side;
    match f () with
    | v ->
      release l;
      v
    | exception e ->
      release l;
      raise e

  let with_lock l f = with_side l Exclusive f
  let with_shared l f = with_side l Shared f
end
