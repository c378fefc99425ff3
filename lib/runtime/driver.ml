(* Workload driver: open- and closed-loop load generation on the
   concurrent runtime.

   Composes the [lib/workload] generators (Zipf key skew, churn, range
   shapes) into operation plans, executes them as interleaved fibers,
   and reports throughput, per-kind latency digests and queue-depth
   statistics. The whole pipeline is a pure function of the config:
   the operation plan is pre-generated from the seed, execution
   interleaves through the deterministic engine, and the report
   serializes with stable field order — so two same-seed runs are
   byte-identical. *)

module Rng = Baton_util.Rng
module Zipf = Baton_util.Zipf
module Sorted_store = Baton_util.Sorted_store
module Timing = Baton_obs.Timing
module Json = Baton_obs.Json
module Trace = Baton_obs.Trace
module Oracle = Baton_obs.Oracle
module Profile = Baton_obs.Profile
module Heat = Baton_obs.Heat
module Series = Baton_obs.Series
module Metrics = Baton_sim.Metrics
module Bus = Baton_sim.Bus
module Engine = Baton_sim.Engine
module Partition = Baton_sim.Partition
module Datagen = Baton_workload.Datagen
module Net = Baton.Net
module Overlay = P2p_overlay.Overlay

type arrival =
  | Closed of { think_ms : float }
  | Open of { rate_per_s : float }

type mix = {
  mix_name : string;
  exact_w : int;
  range_w : int;
  insert_w : int;
  churn_w : int;
}

(* The three canonical mixes reported in BENCH_runtime.json. *)
let read_heavy =
  { mix_name = "read-heavy"; exact_w = 8; range_w = 1; insert_w = 1; churn_w = 0 }

let range_heavy =
  { mix_name = "range-heavy"; exact_w = 2; range_w = 7; insert_w = 1; churn_w = 0 }

let churn_heavy =
  { mix_name = "churn-heavy"; exact_w = 4; range_w = 2; insert_w = 2; churn_w = 2 }

let mixes = [ read_heavy; range_heavy; churn_heavy ]

(* Adversarial-scenario mix: reads and ranges the oracle can judge,
   inserts to keep the model moving, no client-driven churn — the
   membership stress comes from the fault schedule instead. Selectable
   by name but not part of the default bench sweep. *)
let adversarial =
  { mix_name = "adversarial"; exact_w = 5; range_w = 3; insert_w = 2; churn_w = 0 }

let mix_named name =
  List.find_opt (fun m -> String.equal m.mix_name name) (mixes @ [ adversarial ])

type config = {
  overlay : string;  (* canonical Overlay.S name *)
  n : int;
  seed : int;
  keys_per_node : int;
  clients : int;
  ops : int;
  arrival : arrival;
  range_span : int;
  theta : float;
  mix : mix;
  domain : Baton.Range.t option;  (* None = the paper's 1..10^9 domain *)
  timeout_ms : float;
  route_cache : bool;
  monitor_every_ms : float;  (* 0. = health monitoring off *)
  series_every_ms : float;  (* 0. = time-series sampling off *)
  profile : bool;  (* meter the simulator process (wall clock + GC) *)
  heat : bool;  (* demand attribution + heavy-hitter sketch + heatmap *)
  fault_schedule : Partition.schedule;  (* [] = no injected scenario *)
  oracle : bool;  (* check every completed op against the oracle *)
}

let config ?(overlay = "baton") ?(seed = 2005) ?(keys_per_node = 5)
    ?(clients = 32) ?(ops = 2000) ?(arrival = Closed { think_ms = 0. })
    ?(range_span = 2_000_000) ?(theta = 1.0) ?domain
    ?(timeout_ms = Runtime.default_timeout_ms) ?(route_cache = false)
    ?(monitor_every_ms = 0.) ?(series_every_ms = 0.) ?(profile = false)
    ?(heat = false) ?(fault_schedule = []) ?(oracle = false) ~n ~mix () =
  (* Canonicalize eagerly so an unknown name fails here, with the valid
     list in the exception, not deep inside [run]. *)
  let overlay =
    let module O = (val Overlay.of_name overlay : Overlay.S) in
    O.name
  in
  if n < 2 then invalid_arg "Driver.config: n < 2";
  if clients < 1 then invalid_arg "Driver.config: clients < 1";
  if ops < 1 then invalid_arg "Driver.config: ops < 1";
  if keys_per_node < 1 then invalid_arg "Driver.config: keys_per_node < 1";
  if monitor_every_ms < 0. then
    invalid_arg "Driver.config: negative monitor_every_ms";
  if series_every_ms < 0. then
    invalid_arg "Driver.config: negative series_every_ms";
  (match arrival with
  | Closed { think_ms } when think_ms < 0. ->
    invalid_arg "Driver.config: negative think_ms"
  | Open { rate_per_s } when rate_per_s <= 0. ->
    invalid_arg "Driver.config: rate_per_s <= 0"
  | Closed _ | Open _ -> ());
  (* These read BATON's network, which the comparison overlays lack. *)
  if not (String.equal overlay "baton") then begin
    if fault_schedule <> [] then
      invalid_arg "Driver.config: fault schedules are baton-only";
    if route_cache then
      invalid_arg "Driver.config: the route cache is baton-only";
    if monitor_every_ms > 0. then
      invalid_arg "Driver.config: the health monitor is baton-only";
    if heat then
      invalid_arg "Driver.config: heat instrumentation is baton-only";
    if Option.is_some domain then
      invalid_arg "Driver.config: custom domains are baton-only"
  end;
  {
    overlay;
    n;
    seed;
    keys_per_node;
    clients;
    ops;
    arrival;
    range_span;
    theta;
    mix;
    domain;
    timeout_ms;
    route_cache;
    monitor_every_ms;
    series_every_ms;
    profile;
    heat;
    fault_schedule;
    oracle;
  }

(* One planned operation. Join/Leave carry no payload: the peer they
   act on is chosen at execution time from the then-live membership. *)
type op =
  | Exact of int
  | Range of int * int
  | Insert of int
  | Join
  | Leave

let op_kind = function
  | Exact _ -> "exact"
  | Range _ -> "range"
  | Insert _ -> "insert"
  | Join -> "join"
  | Leave -> "leave"

let kind_order = [ "exact"; "range"; "insert"; "join"; "leave" ]

(* Pre-generate the operation plan from the seed: kinds by mix weight,
   exact keys Zipf-skewed over the loaded key set, ranges uniform with
   a fixed span, churn alternating join/leave so the size stays near
   [n]. *)
(* The key-space bounds this run draws from: the paper's canonical
   domain unless the config widened it (scale sweeps). *)
let domain_bounds cfg =
  match cfg.domain with
  | None -> (Datagen.domain_lo, Datagen.domain_hi)
  | Some r -> (r.Baton.Range.lo, r.Baton.Range.hi)

let plan_ops cfg ~keys =
  let m = cfg.mix in
  let total_w = m.exact_w + m.range_w + m.insert_w + m.churn_w in
  if total_w <= 0 then invalid_arg "Driver.plan_ops: empty mix";
  let dlo, dhi = domain_bounds cfg in
  let rng = Rng.create ((cfg.seed * 131) + 9) in
  let zipf = Zipf.create ~n:(Array.length keys) ~theta:cfg.theta in
  let churn_flip = ref false in
  Array.init cfg.ops (fun _ ->
      let r = Rng.int rng total_w in
      if r < m.exact_w then Exact keys.(Zipf.sample zipf rng - 1)
      else if r < m.exact_w + m.range_w then begin
        let lo = Rng.int_in_range rng ~lo:dlo ~hi:(max dlo (dhi - cfg.range_span)) in
        Range (lo, lo + cfg.range_span)
      end
      else if r < m.exact_w + m.range_w + m.insert_w then
        Insert (Rng.int_in_range rng ~lo:dlo ~hi:(dhi - 1))
      else begin
        churn_flip := not !churn_flip;
        if !churn_flip then Join else Leave
      end)

type report = {
  cfg : config;
  ops_issued : int;
  completed : int;
  failed : int;
  retries : int;
  messages : int;
  cache_messages : int;
  cache_hits : int;
  cache_misses : int;
  cache_stale : int;
  duration_ms : float;  (* simulated completion of the last finished op *)
  wall_ms : float;  (* host wall clock of the measured phase; 0 unprofiled *)
  events_per_s : float;  (* raw engine throughput; 0 unprofiled *)
  throughput_ops_s : float;
  latencies : (string * Timing.t) list;  (** in {!kind_order} *)
  depth_max : int;
  depth_mean : float;
  health : Json.t;  (** Monitor.json time series, [Json.Null] when off *)
  load_json : Json.t;  (** Heat.json demand section, [Json.Null] when off *)
  profile_json : Json.t;  (** Profile.json, [Json.Null] when off *)
  series : Series.t option;  (** periodic telemetry samples, when on *)
  partition_timeouts : int;  (** messages blocked by an active partition *)
  gray_drops : int;  (** messages dropped by a gray endpoint *)
  scenario : (float * string) list;  (** fault lifecycle, chronological *)
  oracle : Oracle.t option;  (** consistency verdicts, when enabled *)
}

(* A completed operation's answer, in the shape the oracle judges. *)
type answer =
  | Lookup of { key : int; found : bool; complete : bool }
  | Ranged of {
      lo : int;
      hi : int;
      keys : int list;
      complete : bool;
      holes : (int * int) list;
    }
  | Inserted of int
  | Membership

(* Each overlay's setup returns the runtime over its bus and how a
   planned op executes on it. BATON: queries and inserts race
   membership changes freely — the staleness its routing tolerates —
   while joins and leaves serialize on the membership lock. *)
let baton_setup cfg net ~membership ~crng =
  let par l r = Runtime.both l r in
  let execute = function
    | Exact key ->
      let r = Baton.Search.lookup net ~from:(Net.random_peer net) key in
      Lookup { key; found = r.found; complete = r.complete }
    | Range (lo, hi) ->
      let r = Baton.Search.range ~par net ~from:(Net.random_peer net) ~lo ~hi in
      Ranged { lo; hi; keys = r.keys; complete = r.complete; holes = r.holes }
    | Insert k ->
      ignore (Baton.Update.insert net ~from:(Net.random_peer net) k);
      Inserted k
    | Join ->
      Runtime.Lock.with_lock membership (fun () ->
          ignore (Baton.Network.join net));
      Membership
    | Leave ->
      Runtime.Lock.with_lock membership (fun () ->
          if Net.size net > 2 then
            Baton.Network.leave net (Rng.pick crng (Net.live_ids net)));
      Membership
  in
  (Runtime.create ~timeout_ms:cfg.timeout_ms net, execute)

(* A comparison overlay: its protocols assume a quiescent membership,
   so exact, range and insert run on the lock's shared side and join
   and leave on its exclusive side. Without the lock, chord lost
   lookups and inserts to [Not_found] and a skip-graph range returned a
   false-complete answer under churn. The lock admits in arrival order,
   so the overlay's PRNG is drawn in plan order and a run counts the
   same messages at any number of clients. *)
let overlay_setup cfg (module O : Overlay.S) ~keys ~membership ~crng =
  let t = O.create ~seed:cfg.seed ~n:cfg.n in
  O.bulk_load t (Array.to_list keys);
  let shared f = Runtime.Lock.with_shared membership f in
  let exclusive f = Runtime.Lock.with_lock membership f in
  let execute = function
    | Exact key ->
      let found = shared (fun () -> O.lookup t key) in
      Lookup { key; found; complete = true }
    | Range (lo, hi) ->
      let keys = shared (fun () -> O.range_query t ~lo ~hi) in
      Ranged { lo; hi; keys; complete = true; holes = [] }
    | Insert k ->
      shared (fun () -> O.insert t k);
      Inserted k
    | Join ->
      exclusive (fun () -> O.join t);
      Membership
    | Leave ->
      exclusive (fun () -> O.leave_random t crng);
      Membership
  in
  (Runtime.of_bus ~timeout_ms:cfg.timeout_ms (O.bus t), execute)

(* Adversarial scenario: translate the fault schedule into engine
   events. Faults can only fire while the engine runs, i.e. during the
   measured phase — never during setup. Suspicion-driven repair is
   enabled (peers must recover on their own; no god view) and
   serialized through the same membership lock as joins/leaves, so
   structural mutations never interleave. *)
let install_faults cfg net ~engine ~membership ~oracle ~note =
  Net.set_suspicion_repair net true;
  Net.set_repair_serializer net
    (Some (fun f -> Runtime.Lock.with_lock membership f));
  let live_peers () =
    List.filter
      (fun (p : Baton.Node.t) ->
        not (Bus.is_failed (Net.bus net) p.Baton.Node.id))
      (Net.peers net)
  in
  let peers_in_order () =
    live_peers ()
    |> List.sort (fun (a : Baton.Node.t) (b : Baton.Node.t) ->
           compare a.Baton.Node.range.Baton.Range.lo
             b.Baton.Node.range.Baton.Range.lo)
    |> List.map (fun (p : Baton.Node.t) -> p.Baton.Node.id)
    |> Array.of_list
  in
  let pick_subtree srng =
    (* Sample a live internal node (level >= 2 keeps the blast radius
       below "most of the network") and take its whole subtree — the
       correlated victim group. Falls back to a single random live
       peer in tiny or degenerate trees. *)
    let live =
      List.sort
        (fun (a : Baton.Node.t) (b : Baton.Node.t) ->
          compare a.Baton.Node.id b.Baton.Node.id)
        (live_peers ())
    in
    let internal =
      List.filter
        (fun (p : Baton.Node.t) ->
          Baton.Node.level p >= 2 && not (Baton.Node.is_leaf p))
        live
    in
    match (internal, live) with
    | [], [] -> [||]
    | [], _ ->
      [| (List.nth live (Rng.int srng (List.length live))).Baton.Node.id |]
    | _, _ ->
      let top = List.nth internal (Rng.int srng (List.length internal)) in
      let rec collect pos acc =
        match Baton.Wiring.occupant net pos with
        | None -> acc
        | Some (c : Baton.Node.t) ->
          let acc = c.Baton.Node.id :: acc in
          let acc = collect (Baton.Position.left_child pos) acc in
          collect (Baton.Position.right_child pos) acc
      in
      collect top.Baton.Node.pos []
      |> List.filter (fun id -> not (Bus.is_failed (Net.bus net) id))
      |> List.sort_uniq compare |> Array.of_list
  in
  let crash id =
    match Net.peer_opt net id with
    | None -> ()
    | Some (victim : Baton.Node.t) ->
      (* The crash destroys the peer's data at this instant; tell the
         model before the bus refuses messages to it. *)
      (match oracle with
      | Some o ->
        Oracle.note_lost o ~time:(Engine.now engine)
          (Sorted_store.to_list victim.Baton.Node.store)
      | None -> ());
      Baton.Failure.crash net victim
  in
  Partition.install ~bus:(Net.bus net) ~engine ~seed:((cfg.seed * 67) + 5)
    ~hooks:{ Partition.peers_in_order; pick_subtree; crash; note }
    cfg.fault_schedule

let run cfg =
  (* Phase 1 — synchronous setup (excluded from all measurements):
     build the overlay, load the data. *)
  let dlo, dhi = domain_bounds cfg in
  let gen = Datagen.uniform ~lo:dlo ~hi:dhi (Rng.create ((cfg.seed * 31) + 7)) in
  let keys = Datagen.take gen (cfg.keys_per_node * cfg.n) in
  let membership = Runtime.Lock.create () in
  let crng = Rng.create ((cfg.seed * 17) + 23) in
  (* [net] is BATON's network, read by the observers that only BATON
     has (tracer, heat, faults, monitor). *)
  let net, (rt, execute) =
    if String.equal cfg.overlay "baton" then begin
      let net = Baton.Network.build ~seed:cfg.seed ?domain:cfg.domain cfg.n in
      (* Batched placement: one locate plus an in-order distribution
         pass, instead of a routed insert per key. *)
      ignore
        (Baton.Update.bulk_insert net ~from:(Net.random_peer net)
           (Array.to_list keys));
      if cfg.route_cache then Net.enable_route_cache net;
      (Some net, baton_setup cfg net ~membership ~crng)
    end
    else
      ( None,
        overlay_setup cfg (Overlay.of_name cfg.overlay) ~keys ~membership
          ~crng )
  in
  (* Phase 2 — concurrent measured run. *)
  let bus = Runtime.bus rt in
  let engine = Runtime.engine rt in
  let plan = plan_ops cfg ~keys in
  (* Consistency oracle: seeded with the bulk load (settled before the
     measured phase), fed every mutation and judging every completed
     read. On BATON a tracer rides along so each verdict carries the
     op's causal evidence. Both are pure observers — message counts are
     identical with the oracle on or off. *)
  let oracle =
    if not cfg.oracle then None
    else begin
      let o = Oracle.create () in
      Oracle.seed_keys o (Array.to_list keys);
      Option.iter
        (fun net ->
          let tr = Trace.create () in
          Trace.use_engine tr engine;
          Net.set_tracer net (Some tr))
        net;
      Some o
    end
  in
  (* Demand-heat instrument: installed before the measured phase so
     every workload message is attributed (setup traffic — the bulk
     load — is excluded, like every other measurement). The decayed
     counters run on the engine's virtual clock. A pure observer: heat
     on vs. off counts byte-identical metrics and latency digests. *)
  let heat =
    match net with
    | Some net when cfg.heat ->
      let dom = Net.domain net in
      let h = Heat.create ~lo:dom.Baton.Range.lo ~hi:dom.Baton.Range.hi () in
      Heat.set_clock h (Some (fun () -> Engine.now engine));
      Net.set_heat net (Some h);
      Some h
    | Some _ | None -> None
  in
  let scenario_notes = ref [] in
  (match net with
  | Some net when cfg.fault_schedule <> [] ->
    install_faults cfg net ~engine ~membership ~oracle ~note:(fun msg ->
        scenario_notes := (Engine.now engine, msg) :: !scenario_notes)
  | Some _ | None -> ());
  (* Self-profiler, created just before the drain (below) so its clock
     and GC zero point cover the measured phase alone. The observer
     callbacks bill their own rows to it through [observe]. *)
  let profiler = ref None in
  let observe name f =
    match !profiler with None -> f () | Some p -> Profile.span p name f
  in
  let completed = ref 0 and failed = ref 0 in
  (* Completion instant of the last finished operation — the measured
     duration. [Runtime.now] after the drain would also include
     trailing non-workload events (the final monitor tick, a last
     think-time sleep), which are not work. *)
  let last_done = ref 0. in
  let latencies = List.map (fun k -> (k, Timing.create ())) kind_order in
  (* The trace of the operation that just completed. Safe to read after
     [execute] returns: closing the episode and this check run with no
     suspension point between them, so no interleaved fiber can have
     displaced it. *)
  let latest_trace () =
    match Option.bind net Net.tracer with
    | None -> None
    | Some tr -> Option.map (Trace.analyze ?top:None) (Trace.latest tr)
  in
  let run_op i =
    let op = plan.(i) in
    let digest = List.assoc (op_kind op) latencies in
    let started = Runtime.now rt in
    (match (oracle, op) with
    | Some o, Insert k -> Oracle.begin_mutation o k
    | _ -> ());
    match execute op with
    | answer -> (
      incr completed;
      let finished = Runtime.now rt in
      last_done := finished;
      Timing.add digest (finished -. started);
      match oracle with
      | None -> ()
      | Some o -> (
        match answer with
        | Lookup { key; found; complete } ->
          observe Profile.s_oracle @@ fun () ->
          ignore
            (Oracle.check_exact o ?trace:(latest_trace ()) ~started
               ~finished ~key ~found ~complete ()
              : Oracle.verdict)
        | Ranged { lo; hi; keys; complete; holes } ->
          observe Profile.s_oracle @@ fun () ->
          ignore
            (Oracle.check_range o ?trace:(latest_trace ()) ~started
               ~finished ~lo ~hi ~keys ~complete ~holes ()
              : Oracle.verdict)
        | Inserted k -> Oracle.commit_insert o k ~started ~finished
        | Membership -> ()))
    | exception _ ->
      (* Operations racing churn can find their origin gone or their
         walk stuck, and an overlay may not support an op at all (chord
         has no range queries); on a real deployment the client would
         retry. The driver counts the casualty and moves on —
         determinism is unaffected, the failure is part of the seeded
         schedule. *)
      (match (oracle, op) with
      | Some o, Insert k -> Oracle.abort_mutation o k
      | _ -> ());
      incr failed;
      last_done := Runtime.now rt
  in
  (match cfg.arrival with
  | Closed { think_ms } ->
    (* Closed loop: [clients] fibers, each picking the next unissued
       operation as soon as its previous one completes. *)
    let next = ref 0 in
    let rec client () =
      let i = !next in
      if i < Array.length plan then begin
        incr next;
        run_op i;
        if think_ms > 0. then Runtime.sleep think_ms;
        client ()
      end
    in
    for _ = 1 to min cfg.clients cfg.ops do
      Runtime.spawn rt client ~on_done:(fun _ -> ())
    done
  | Open { rate_per_s } ->
    (* Open loop: operations arrive on a seeded exponential process at
       the aggregate rate, regardless of completions. *)
    let arng = Rng.create ((cfg.seed * 41) + 3) in
    let mean_gap_ms = 1000. /. rate_per_s in
    let at = ref 0. in
    Array.iteri
      (fun i _ ->
        Runtime.spawn ~at:!at rt (fun () -> run_op i) ~on_done:(fun _ -> ());
        let u = Rng.float arng 1.0 in
        at := !at +. (-.mean_gap_ms *. log (1. -. (u *. 0.999))))
      plan);
  (* Health monitor: a self-rescheduling engine tick, installed after
     the workload fibers so the first sample lands one period into the
     run. It stops rescheduling once every fiber has finished, so the
     engine still drains. A pure observer — sampling sends no message
     and draws from no protocol PRNG, so runs with monitoring on and
     off count byte-identical metrics and finish at the same virtual
     instant. *)
  let monitor =
    match net with
    | Some net when cfg.monitor_every_ms > 0. ->
      let mon = Baton.Monitor.create net in
      Engine.every engine ~period:cfg.monitor_every_ms (fun () ->
          observe Profile.s_monitor @@ fun () ->
          ignore
            (Baton.Monitor.tick mon ~time:(Engine.now engine)
              : Baton.Monitor.sample);
          Runtime.live_fibers rt > 0);
      Some mon
    | Some _ | None -> None
  in
  (* The measurement checkpoint: everything below counts only the
     measured phase, not setup. Taken before the samplers are installed
     so the first time-series sample already reads measured-phase
     deltas; nothing between here and [Runtime.run] sends a message. *)
  let metrics = Bus.metrics bus in
  let cp = Metrics.checkpoint metrics in
  (* Time-series sampler: like the monitor, a self-rescheduling pure
     observer on the virtual clock. Every sampled quantity is
     deterministic (counters, fiber counts, queue high-water, monitor
     rank) — wall-clock numbers live only in the profile section — so
     the exported series is byte-identical across same-seed runs. It is
     installed after the monitor: at a shared virtual instant the
     engine pops ties in schedule order, so the sample sees the
     monitor's tick from the same instant. *)
  let series =
    if cfg.series_every_ms <= 0. then None
    else begin
      let s = Series.create () in
      Engine.every engine ~period:cfg.series_every_ms (fun () ->
          observe Profile.s_series @@ fun () ->
          let health_rank =
            match monitor with
            | None -> -1.
            | Some mon -> (
              match Baton.Monitor.latest mon with
              | None -> -1.
              | Some smp ->
                float_of_int (Baton.Monitor.level_rank smp.Baton.Monitor.overall))
          in
          Series.record s ~time:(Engine.now engine)
            ([
               ("completed", float_of_int !completed);
              ("failed", float_of_int !failed);
              ("messages", float_of_int (Metrics.since metrics cp));
              ("cache_messages", float_of_int (Metrics.aux_since metrics cp));
              ( "cache_hits",
                float_of_int
                  (Metrics.event_since metrics cp Baton.Msg.ev_cache_hit) );
              ( "retries",
                float_of_int (Metrics.event_since metrics cp Baton.Msg.ev_retry)
              );
              ("live_fibers", float_of_int (Runtime.live_fibers rt));
              ("pending_events", float_of_int (Engine.pending engine));
               ("queue_depth_max", float_of_int (Runtime.queue_depth_max rt));
               ("health_rank", health_rank);
             ]
            @
            (* Skew trajectory in the shared ring: the decayed-counter
               max/mean at each sample instant — how concentration
               moves over time, next to the counters it explains. Only
               present when the heat instrument is on, so heat-off
               series stay byte-identical to pre-heat builds. *)
            (match heat with
            | None -> []
            | Some h -> [ ("heat_skew", Heat.skew h) ]));
          Runtime.live_fibers rt > 0);
      Some s
    end
  in
  (* Self-profiler: meters the host process around the measured phase
     only (setup is excluded, like every other measurement). The engine
     probe spans every event dispatch and the bus probe bills each
     delivery inside it; with the observer rows above they tile the
     drain's wall. Detached right after the drain so the report holds
     a closed interval. *)
  if cfg.profile then begin
    let p = Profile.create () in
    Bus.set_probe bus (Some (Profile.bus_probe p));
    Engine.set_probe engine (Some (Profile.engine_probe p));
    profiler := Some p
  end;
  Runtime.run rt;
  let profiler = !profiler in
  (match profiler with
  | None -> ()
  | Some p ->
    Profile.stop p;
    Engine.set_probe engine None;
    Bus.set_probe bus None);
  let duration_ms = !last_done in
  {
    cfg;
    ops_issued = Array.length plan;
    completed = !completed;
    failed = !failed;
    retries = Metrics.event_since metrics cp Baton.Msg.ev_retry;
    messages = Metrics.since metrics cp;
    cache_messages = Metrics.aux_since metrics cp;
    cache_hits = Metrics.event_since metrics cp Baton.Msg.ev_cache_hit;
    cache_misses = Metrics.event_since metrics cp Baton.Msg.ev_cache_miss;
    cache_stale = Metrics.event_since metrics cp Baton.Msg.ev_cache_stale;
    duration_ms;
    wall_ms = (match profiler with Some p -> Profile.elapsed_ms p | None -> 0.);
    events_per_s =
      (match profiler with Some p -> Profile.events_per_s p | None -> 0.);
    throughput_ops_s =
      (if duration_ms > 0. then float_of_int !completed /. duration_ms *. 1000.
       else 0.);
    latencies;
    depth_max = Runtime.queue_depth_max rt;
    depth_mean = Runtime.queue_depth_mean rt;
    health =
      (match monitor with
      | None -> Json.Null
      | Some mon -> Baton.Monitor.json mon);
    load_json = (match heat with Some h -> Heat.json h | None -> Json.Null);
    profile_json =
      (match profiler with Some p -> Profile.json p | None -> Json.Null);
    series;
    partition_timeouts = Metrics.event_since metrics cp Bus.partition_event;
    gray_drops = Metrics.event_since metrics cp Bus.gray_event;
    scenario = List.rev !scenario_notes;
    oracle;
  }

(* --- Scale sweep ----------------------------------------------------

   The n-sweep behind `bench-scale`: the same read-heavy measured phase
   at each population size, profiled, so raw engine throughput
   (events/s) is reported per n. Two scale-dependent knobs keep the
   workload self-similar instead of degenerate:

   - the key domain widens with n (2^26 keys of room per peer, never
     below the canonical 10^9): a fixed 10^9-wide domain runs out of
     integer width around n = 10^5 — [Range.midpoint] cannot split a
     unit interval. Per peer, 2^26 is deliberately lavish: rotations
     decouple a node's range width from its depth, so the deepest
     split chain runs ~2x the tree height (measured: 24 halvings at
     n = 10^4, 31 at 10^5, ~38 extrapolated at 10^6), and the domain
     must absorb the chain maximum, not the balanced average;

   - the range-query span stays at 1/500 of the domain (the canonical
     2·10^6 over 10^9), so a range op sweeps a comparable slice of the
     tree at every n.

   Each point is an ordinary [report] whose mix is named "n=<n>", so
   the document's top-level "runs" list is exactly the layout
   [Bench_diff.labeled_runs] already labels, exact-compares (simulated
   fields) and gates (profile.events_per_s) — the scale baseline needs
   no new diff machinery. *)

let scale_domain n =
  Baton.Range.make ~lo:1 ~hi:(max Datagen.domain_hi (n * 67_108_864))

let scale_config ?(seed = 2005) ?(keys_per_node = 2) ?(ops = 2000)
    ?(clients = 32) n =
  let domain = scale_domain n in
  let width = domain.Baton.Range.hi - domain.Baton.Range.lo in
  config ~seed ~keys_per_node ~ops ~clients ~range_span:(width / 500) ~domain
    ~profile:true ~n
    ~mix:{ read_heavy with mix_name = Printf.sprintf "n=%d" n }
    ()

let run_scale ?seed ?keys_per_node ?ops ?clients ?(progress = fun _ -> ()) ns =
  if ns = [] then invalid_arg "Driver.run_scale: empty n list";
  List.map
    (fun n ->
      let r = run (scale_config ?seed ?keys_per_node ?ops ?clients n) in
      progress r;
      r)
    ns

(* --- Serialization -------------------------------------------------- *)

let arrival_json = function
  | Closed { think_ms } ->
    Json.Obj [ ("model", Json.String "closed"); ("think_ms", Json.Float think_ms) ]
  | Open { rate_per_s } ->
    Json.Obj [ ("model", Json.String "open"); ("rate_per_s", Json.Float rate_per_s) ]

let report_json r =
  Json.Obj
    ([
      ("mix", Json.String r.cfg.mix.mix_name);
      ("n", Json.Int r.cfg.n);
      ("seed", Json.Int r.cfg.seed);
      ("clients", Json.Int r.cfg.clients);
      ("arrival", arrival_json r.cfg.arrival);
      ("ops_issued", Json.Int r.ops_issued);
      ("completed", Json.Int r.completed);
      ("failed", Json.Int r.failed);
      ("retries", Json.Int r.retries);
      ("messages", Json.Int r.messages);
      ("route_cache", Json.Bool r.cfg.route_cache);
      ( "cache",
        Json.Obj
          [
            ("messages", Json.Int r.cache_messages);
            ("hits", Json.Int r.cache_hits);
            ("misses", Json.Int r.cache_misses);
            ("stale", Json.Int r.cache_stale);
          ] );
      ("duration_ms", Json.Float r.duration_ms);
      ("throughput_ops_per_s", Json.Float r.throughput_ops_s);
      ( "latency_ms",
        Json.Obj
          (List.filter_map
             (fun (kind, d) ->
               if Timing.count d = 0 then None else Some (kind, Timing.json d))
             r.latencies) );
      ( "queue_depth",
        Json.Obj
          [
            ("max", Json.Int r.depth_max); ("mean", Json.Float r.depth_mean);
          ] );
      ("monitor_every_ms", Json.Float r.cfg.monitor_every_ms);
      ("health", r.health);
      ("series_every_ms", Json.Float r.cfg.series_every_ms);
      ( "timeseries",
        match r.series with
        | None -> Json.Null
        | Some s ->
          Json.Obj
            (("every_ms", Json.Float r.cfg.series_every_ms)
            :: Series.json_fields s) );
      (* Host wall-clock / GC numbers — inherently non-deterministic.
         Everything above this field is a pure function of the seed;
         seeded byte-comparisons must run unprofiled (profile = Null)
         or strip this subtree ({!Bench_diff} does the latter). *)
      ("profile", r.profile_json);
      ( "faults",
        Json.Obj
          [
            ( "schedule",
              if r.cfg.fault_schedule = [] then Json.Null
              else Json.String (Partition.to_string r.cfg.fault_schedule) );
            ("partition_timeouts", Json.Int r.partition_timeouts);
            ("gray_drops", Json.Int r.gray_drops);
            ( "scenario",
              Json.List
                (List.map
                   (fun (t, msg) ->
                     Json.Obj
                       [ ("t", Json.Float t); ("msg", Json.String msg) ])
                   r.scenario) );
          ] );
      ( "oracle",
        match r.oracle with None -> Json.Null | Some o -> Oracle.json o );
    ]
    @
    (* The demand section exists only when the heat instrument was on:
       heat-off reports are byte-identical to pre-heat builds (the
       neutrality guard tests exactly this), and the scale/overlay
       documents that run heatless keep their committed bytes. *)
    (match r.load_json with
    | Json.Null -> []
    | load -> [ ("load", load) ]))

(* v8: the [health] section drops its [load] array (percentile
   snapshots of the per-peer message counts); each health sample's
   [skew] is the one per-peer load reading. Every other field is
   byte-identical to its v7 value. v7 added the optional run-level
   [load] section (heat attribution, heavy hitters, key-space heatmap,
   decayed skew), the series' [heat_skew] and the health samples'
   [hot_share]/[hotspot] readings. *)
let schema_version = "baton-bench-runtime-v8"

let scale_schema_version = "baton-bench-scale-v1"

let scale_json reports =
  Json.Obj
    [
      ("schema", Json.String scale_schema_version);
      ("runs", Json.List (List.map report_json reports));
    ]

(* v6: runs grouped per overlay. A run object is unchanged from v5, so
   a baton-only document differs from its v5 counterpart only by this
   wrapper (schema string + one level of nesting). *)
let bench_json sections =
  Json.Obj
    [
      ("schema", Json.String schema_version);
      ( "overlays",
        Json.List
          (List.map
             (fun (overlay, reports) ->
               Json.Obj
                 [
                   ("overlay", Json.String overlay);
                   ("runs", Json.List (List.map report_json reports));
                 ])
             sections) );
    ]

let summary r =
  let digest kind =
    let d = List.assoc kind r.latencies in
    if Timing.count d = 0 then "-"
    else
      Printf.sprintf "p50 %.0f / p95 %.0f / p99 %.0f ms"
        (Timing.percentile d 50.) (Timing.percentile d 95.)
        (Timing.percentile d 99.)
  in
  let base =
    Printf.sprintf
      "%-12s %5d ops  %5d ok  %3d failed  %8.1f ops/s  exact %s  range %s"
      r.cfg.mix.mix_name r.ops_issued r.completed r.failed r.throughput_ops_s
      (digest "exact") (digest "range")
  in
  let base =
    if r.wall_ms <= 0. then base
    else
      Printf.sprintf "%s  wall %.0f ms  %.0f ev/s" base r.wall_ms
        r.events_per_s
  in
  match r.oracle with
  | None -> base
  | Some o ->
    Printf.sprintf "%s  oracle %d checked / %d violations" base
      (Oracle.checked o) (Oracle.violation_count o)

(* One JSON object per line per retained sample, tagged with the
   overlay and mix it came from — the artifact format CI uploads.
   Deterministic: only virtual-clock timestamps and counter values
   appear. *)
let timeseries_jsonl sections =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (overlay, reports) ->
      List.iter
        (fun r ->
          match r.series with
          | None -> ()
          | Some s ->
            List.iter
              (fun smp ->
                let fields =
                  match Series.sample_json smp with
                  | Json.Obj fields -> fields
                  | _ -> assert false
                in
                Buffer.add_string buf
                  (Json.to_string
                     (Json.Obj
                        (("overlay", Json.String overlay)
                        :: ("mix", Json.String r.cfg.mix.mix_name)
                        :: fields)));
                Buffer.add_char buf '\n')
              (Series.samples s))
        reports)
    sections;
  Buffer.contents buf
