(* The repository benchmark: BATON's cost, end to end and layer by layer.

   One process runs one workload. It repeats a whole round — build the
   overlay, bulk-load it, install the observers (setup), drive the
   seeded closed-loop plan on the fiber runtime (the measured phase),
   summarise it (report) — for about [--seconds] of wall time, and
   reports the median of every wall-clock metric over its rounds. The
   simulated metrics are a pure function of the seed, so every round
   must reproduce them exactly; a round that does not is an output
   failure, as is a broken final tree or an oracle violation.

   A round is a phase-split copy of [Driver.run_baton]: the benchmark
   calls the public layer functions itself, so it can time each phase
   and, in a traced round, put a span around every layer call and
   observer. [--check-parity] shows that it drives the same program as
   [Driver.run]. Load comes from 32 simulated closed-loop clients (fibers
   with zero think time) in this one single-threaded process; no real
   network is involved. *)

module Rng = Baton_util.Rng
module Zipf = Baton_util.Zipf
module Timing = Baton_obs.Timing
module Json = Baton_obs.Json
module Trace = Baton_obs.Trace
module Oracle = Baton_obs.Oracle
module Heat = Baton_obs.Heat
module Series = Baton_obs.Series
module Metrics = Baton_sim.Metrics
module Bus = Baton_sim.Bus
module Engine = Baton_sim.Engine
module Partition = Baton_sim.Partition
module Datagen = Baton_workload.Datagen
module Driver = Baton_runtime.Driver
module Runtime = Baton_runtime.Runtime
module Net = Baton.Net
module Node = Baton.Node

let now = Unix.gettimeofday

(* --- Workloads --------------------------------------------------------- *)

(* Gray peers only: partitions and subtree crashes strand some inserts
   and walks (they fail as Routing_stuck) on a few seeds in ten, and a
   benchmark workload must complete every operation on every seed. *)
let faults_spec = "gray@5000+100000:peers=20,drop=0.3"

let faults =
  match Partition.parse faults_spec with
  | Ok s -> s
  | Error e -> failwith ("baton_bench: bad fault schedule: " ^ e)

(* Each workload loads a different layer; README.md gives the reasons. *)
type workload = {
  name : string;
  n : int;
  ops : int;
  keys_per_node : int;
  mix : Driver.mix;
  observed : bool;  (* bench-run's default observers plus [faults] *)
}

let workloads =
  [
    { name = "build-100k"; n = 100_000; ops = 10_000; keys_per_node = 2;
      mix = Driver.read_heavy; observed = false };
    { name = "read-10k"; n = 10_000; ops = 50_000; keys_per_node = 5;
      mix = Driver.read_heavy; observed = false };
    { name = "churn-10k"; n = 10_000; ops = 10_000; keys_per_node = 5;
      mix = Driver.churn_heavy; observed = false };
    { name = "faults-observed-2k"; n = 2_000; ops = 6_800; keys_per_node = 5;
      mix = Driver.adversarial; observed = true };
  ]

let workload_named name = List.find_opt (fun w -> String.equal w.name name) workloads

(* Every workload uses the scale sweep's widened domain and range span:
   on the canonical 10^9 domain a churn run can meet a range too narrow
   to split, which fails the join. [n] and [ops] are parameters so the
   smoke test and the parity check can run a workload at a reduced
   size. *)
let config w ~seed ~n ~ops =
  let cfg =
    {
      (Driver.scale_config ~seed ~keys_per_node:w.keys_per_node ~ops n) with
      profile = false;
      mix = w.mix;
    }
  in
  if not w.observed then cfg
  else
    {
      cfg with
      oracle = true;
      heat = true;
      monitor_every_ms = 2000.;
      series_every_ms = 1000.;
      fault_schedule = faults;
    }

(* --- Operation plan: a copy of Driver.plan_ops (not exported) ----------- *)

type op = Exact of int | Range of int * int | Insert of int | Join | Leave

let op_kind = function
  | Exact _ -> "exact"
  | Range _ -> "range"
  | Insert _ -> "insert"
  | Join -> "join"
  | Leave -> "leave"

let domain_bounds (cfg : Driver.config) =
  match cfg.domain with
  | None -> (Datagen.domain_lo, Datagen.domain_hi)
  | Some r -> (r.Baton.Range.lo, r.Baton.Range.hi)

let plan_ops (cfg : Driver.config) ~keys =
  let m = cfg.mix in
  let total_w = m.exact_w + m.range_w + m.insert_w + m.churn_w in
  let dlo, dhi = domain_bounds cfg in
  let rng = Rng.create ((cfg.seed * 131) + 9) in
  let zipf = Zipf.create ~n:(Array.length keys) ~theta:cfg.theta in
  let churn_flip = ref false in
  Array.init cfg.ops (fun _ ->
      let r = Rng.int rng total_w in
      if r < m.exact_w then Exact keys.(Zipf.sample zipf rng - 1)
      else if r < m.exact_w + m.range_w then begin
        let lo =
          Rng.int_in_range rng ~lo:dlo ~hi:(max dlo (dhi - cfg.range_span))
        in
        Range (lo, lo + cfg.range_span)
      end
      else if r < m.exact_w + m.range_w + m.insert_w then
        Insert (Rng.int_in_range rng ~lo:dlo ~hi:(dhi - 1))
      else begin
        churn_flip := not !churn_flip;
        if !churn_flip then Join else Leave
      end)

(* --- Span ledger (traced rounds only) ---------------------------------- *)

(* A layer's calls, inclusive busy time and self time (busy minus the
   time its child spans cover), in wall seconds. *)
type layer = { mutable calls : int; mutable busy : float; mutable self : float }

type frame = { layer : layer; t0 : float; mutable inner : float }

type ledger = {
  mutable stack : frame list;
  join_find : layer;
  join_accept : layer;
  bulk_insert : layer;
  setup_workload : layer;  (* key and plan generation *)
  setup_observers : layer;  (* oracle seeding, heat, faults, samplers *)
  bus_setup : layer;
  bus_run : layer;
  dispatch : layer;
  monitor : layer;
  series : layer;
  oracle : layer;
  mutable bus : layer;  (* [bus_setup] until the measured phase starts *)
  mutable bus_t0 : float;
}

let layer () = { calls = 0; busy = 0.; self = 0. }

let ledger () =
  let bus_setup = layer () in
  {
    stack = [];
    join_find = layer ();
    join_accept = layer ();
    bulk_insert = layer ();
    setup_workload = layer ();
    setup_observers = layer ();
    bus_setup;
    bus_run = layer ();
    dispatch = layer ();
    monitor = layer ();
    series = layer ();
    oracle = layer ();
    bus = bus_setup;
    bus_t0 = 0.;
  }

let enter l layer = l.stack <- { layer; t0 = now (); inner = 0. } :: l.stack

let leave l =
  match l.stack with
  | [] -> invalid_arg "baton_bench: span stack underflow"
  | f :: rest ->
    let d = now () -. f.t0 in
    f.layer.calls <- f.layer.calls + 1;
    f.layer.busy <- f.layer.busy +. d;
    f.layer.self <- f.layer.self +. d -. f.inner;
    l.stack <- rest;
    (match rest with p :: _ -> p.inner <- p.inner +. d | [] -> ())

(* [span tr pick f] runs [f] inside a span of layer [pick l]; untraced
   ([tr = None]) it is just [f ()]. *)
let span tr pick f =
  match tr with
  | None -> f ()
  | Some l -> (
    enter l (pick l);
    match f () with
    | v ->
      leave l;
      v
    | exception e ->
      leave l;
      raise e)

(* Bus sends are the most frequent span and never have children, so
   they skip the frame stack: the probe only charges its time to the
   enclosing span. *)
let bus_probe l =
  {
    Bus.before = (fun () -> l.bus_t0 <- now ());
    after =
      (fun () ->
        let d = now () -. l.bus_t0 in
        let b = l.bus in
        b.calls <- b.calls + 1;
        b.busy <- b.busy +. d;
        b.self <- b.self +. d;
        match l.stack with f :: _ -> f.inner <- f.inner +. d | [] -> ());
  }

(* --- One round ---------------------------------------------------------- *)

(* The simulated outcome: a pure function of the config. *)
type sim = {
  build_msgs : int;
  issued : int;
  completed : int;
  failed : int;
  messages : int;
  duration_ms : float;
  latencies : (string * Timing.t) list;
  membership : Timing.t;  (* joins and leaves together *)
  kinds : (string * int) list;  (* measured-phase messages per kind *)
  events : (string * int) list;
  lock_acquires : int;
  lock_wait_vms : float;
  depth_max : int;
  depth_mean : float;
  violations : int;
  tolerated : int;
}

type round = {
  sim : sim;
  setup_s : float;
  run_s : float;
  total_s : float;
  heap_words : int;  (* [Gc.top_heap_words] at report time *)
  ledger : ledger option;
  gc_setup : Gc.stat * Gc.stat;
  gc_run : Gc.stat * Gc.stat;
  problems : string list;  (* output checks that failed *)
}

let msg_kinds =
  Baton.Msg.
    [
      join_search;
      join_update;
      leave_search;
      leave_update;
      search_exact;
      search_range;
      insert;
      restructure;
      repair;
    ]

let event_names = Baton.Msg.[ ev_retry; ev_give_up; ev_repair_triggered ]

(* Serialises every simulated quantity; equal fingerprints mean two
   rounds ran the same simulation. *)
let fingerprint s =
  let digests =
    List.map (fun (k, d) -> k ^ "=" ^ Json.to_string (Timing.json d)) s.latencies
  in
  let counts l = List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l in
  String.concat ";"
    ([
       string_of_int s.build_msgs;
       string_of_int s.issued;
       string_of_int s.completed;
       string_of_int s.failed;
       string_of_int s.messages;
       Json.float_repr s.duration_ms;
       Json.to_string (Timing.json s.membership);
       string_of_int s.lock_acquires;
       Json.float_repr s.lock_wait_vms;
       string_of_int s.depth_max;
       Json.float_repr s.depth_mean;
       string_of_int s.violations;
       string_of_int s.tolerated;
     ]
    @ digests @ counts s.kinds @ counts s.events)

(* The checks [Monitor.tick] runs, applied once to the final tree. Crash
   repair is reactive: a link to a crashed or replaced peer stays stale
   until traffic trips over it, so under injected faults the link check
   is left out and the oracle judges the answers instead. *)
let structure_problems (cfg : Driver.config) net =
  let check name f =
    match f net with () -> [] | exception e -> [ name ^ ": " ^ Printexc.to_string e ]
  in
  List.concat
    [
      check "balanced" Baton.Check.balanced;
      check "height_bound" Baton.Check.height_bound;
      check "tree_shape" Baton.Check.tree_shape;
      check "ranges" Baton.Check.ranges;
      (if cfg.fault_schedule = [] then check "links" (Baton.Check.links ~strict:false)
       else []);
    ]

(* Build as [Baton.Network.build] does; a traced round unrolls
   [Join.join] into its find and accept steps so each gets a span. *)
let build tr (cfg : Driver.config) =
  match tr with
  | None -> Baton.Network.build ~seed:cfg.seed ?domain:cfg.domain cfg.n
  | Some l ->
    let net = Baton.Network.create ~seed:cfg.seed ?domain:cfg.domain () in
    Bus.set_probe (Net.bus net) (Some (bus_probe l));
    ignore (Baton.Join.join_new_network net : Node.t);
    for _ = 2 to cfg.n do
      let acceptor, _ =
        span tr
          (fun l -> l.join_find)
          (fun () -> Baton.Join.find_join_node net ~via:(Net.random_peer net))
      in
      span tr
        (fun l -> l.join_accept)
        (fun () -> ignore (Baton.Join.accept net ~acceptor (Net.fresh_id net)))
    done;
    net

let round ~traced ~check (cfg : Driver.config) =
  let tr = if traced then Some (ledger ()) else None in
  let t_start = now () in
  let gc0 = Gc.quick_stat () in
  (* Setup: build, load, install observers. *)
  let net = build tr cfg in
  let metrics = Net.metrics net in
  let build_msgs = Metrics.total metrics in
  let dlo, dhi = domain_bounds cfg in
  let keys =
    span tr
      (fun l -> l.setup_workload)
      (fun () ->
        Datagen.take
          (Datagen.uniform ~lo:dlo ~hi:dhi (Rng.create ((cfg.seed * 31) + 7)))
          (cfg.keys_per_node * cfg.n))
  in
  span tr
    (fun l -> l.bulk_insert)
    (fun () ->
      ignore
        (Baton.Update.bulk_insert net ~from:(Net.random_peer net)
           (Array.to_list keys)));
  let rt = Runtime.create ~timeout_ms:cfg.timeout_ms net in
  let engine = Runtime.engine rt in
  let plan = span tr (fun l -> l.setup_workload) (fun () -> plan_ops cfg ~keys) in
  let membership = Runtime.Lock.create () in
  let lock_acquires = ref 0 and lock_wait = ref 0. in
  let locked f =
    let asked = Runtime.now rt in
    Runtime.Lock.acquire membership;
    incr lock_acquires;
    lock_wait := !lock_wait +. (Runtime.now rt -. asked);
    match f () with
    | v ->
      Runtime.Lock.release membership;
      v
    | exception e ->
      Runtime.Lock.release membership;
      raise e
  in
  let crng = Rng.create ((cfg.seed * 17) + 23) in
  let observers f = span tr (fun l -> l.setup_observers) f in
  let oracle =
    observers (fun () ->
        if not cfg.oracle then None
        else begin
          let o = Oracle.create () in
          Oracle.seed_keys o (Array.to_list keys);
          let trc = Trace.create () in
          Trace.use_engine trc engine;
          Net.set_tracer net (Some trc);
          Some o
        end)
  in
  let heat =
    observers (fun () ->
        if not cfg.heat then None
        else begin
          let dom = Net.domain net in
          let h = Heat.create ~lo:dom.Baton.Range.lo ~hi:dom.Baton.Range.hi () in
          Heat.set_clock h (Some (fun () -> Engine.now engine));
          Net.set_heat net (Some h);
          Some h
        end)
  in
  observers (fun () ->
      if cfg.fault_schedule <> [] then begin
        Net.set_suspicion_repair net true;
        Net.set_repair_serializer net (Some (fun f -> locked f));
        let peers_in_order () =
          Net.peers net
          |> List.filter (fun (p : Node.t) -> not (Bus.is_failed (Net.bus net) p.Node.id))
          |> List.sort (fun (a : Node.t) (b : Node.t) ->
                 compare a.Node.range.Baton.Range.lo b.Node.range.Baton.Range.lo)
          |> List.map (fun (p : Node.t) -> p.Node.id)
          |> Array.of_list
        in
        (* [faults] has gray peers only, which need no crash hooks. *)
        let no_crashes _ = invalid_arg "baton_bench: the fault schedule crashes no peer" in
        Partition.install ~bus:(Net.bus net) ~engine ~seed:((cfg.seed * 67) + 5)
          ~hooks:
            {
              Partition.peers_in_order;
              pick_subtree = no_crashes;
              crash = no_crashes;
              note = ignore;
            }
          cfg.fault_schedule
      end);
  let completed = ref 0 and failed = ref 0 and last_done = ref 0. in
  let latencies = List.map (fun k -> (k, Timing.create ())) Driver.kind_order in
  let membership_lat = Timing.create () in
  let par l r = Runtime.both l r in
  let execute = function
    | Exact k -> `Lookup (k, Baton.Search.lookup net ~from:(Net.random_peer net) k)
    | Range (lo, hi) ->
      `Ranged (lo, hi, Baton.Search.range ~par net ~from:(Net.random_peer net) ~lo ~hi)
    | Insert k ->
      ignore (Baton.Update.insert net ~from:(Net.random_peer net) k);
      `Inserted k
    | Join ->
      locked (fun () -> ignore (Baton.Network.join net));
      `Membership
    | Leave ->
      locked (fun () ->
          if Net.size net > 2 then
            Baton.Network.leave net (Rng.pick crng (Net.live_ids net)));
      `Membership
  in
  let latest_trace () =
    match Net.tracer net with
    | None -> None
    | Some trc -> Option.map (Trace.analyze ?top:None) (Trace.latest trc)
  in
  let run_op op =
    let started = Runtime.now rt in
    (match (oracle, op) with Some o, Insert k -> Oracle.begin_mutation o k | _ -> ());
    match execute op with
    | outcome -> (
      incr completed;
      let finished = Runtime.now rt in
      last_done := finished;
      Timing.add (List.assoc (op_kind op) latencies) (finished -. started);
      (match op with
      | Join | Leave -> Timing.add membership_lat (finished -. started)
      | _ -> ());
      match oracle with
      | None -> ()
      | Some o ->
        span tr
          (fun l -> l.oracle)
          (fun () ->
            match outcome with
            | `Lookup (k, (r : Baton.Search.result)) ->
              ignore
                (Oracle.check_exact o ?trace:(latest_trace ()) ~started ~finished
                   ~key:k ~found:r.found ~complete:r.complete ()
                  : Oracle.verdict)
            | `Ranged (lo, hi, (r : Baton.Search.result)) ->
              ignore
                (Oracle.check_range o ?trace:(latest_trace ()) ~started ~finished
                   ~lo ~hi ~keys:r.keys ~complete:r.complete ~holes:r.holes ()
                  : Oracle.verdict)
            | `Inserted k -> Oracle.commit_insert o k ~started ~finished
            | `Membership -> ()))
    | exception _ ->
      (match (oracle, op) with Some o, Insert k -> Oracle.abort_mutation o k | _ -> ());
      incr failed;
      last_done := Runtime.now rt
  in
  let next = ref 0 in
  let rec client () =
    let i = !next in
    if i < Array.length plan then begin
      incr next;
      run_op plan.(i);
      client ()
    end
  in
  for _ = 1 to min cfg.clients cfg.ops do
    Runtime.spawn rt client ~on_done:(fun _ -> ())
  done;
  let monitor =
    observers (fun () ->
        if cfg.monitor_every_ms <= 0. then None
        else begin
          let mon = Baton.Monitor.create net in
          Engine.every engine ~period:cfg.monitor_every_ms (fun () ->
              span tr
                (fun l -> l.monitor)
                (fun () ->
                  ignore
                    (Baton.Monitor.tick mon ~time:(Engine.now engine)
                      : Baton.Monitor.sample));
              Runtime.live_fibers rt > 0);
          Some mon
        end)
  in
  let cp = Metrics.checkpoint metrics in
  observers (fun () ->
      if cfg.series_every_ms > 0. then begin
        let s = Series.create () in
        Engine.every engine ~period:cfg.series_every_ms (fun () ->
            span tr
              (fun l -> l.series)
              (fun () ->
                let health_rank =
                  match Option.bind monitor Baton.Monitor.latest with
                  | None -> -1.
                  | Some smp ->
                    float_of_int (Baton.Monitor.level_rank smp.Baton.Monitor.overall)
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
                       float_of_int (Metrics.event_since metrics cp Baton.Msg.ev_retry) );
                     ("live_fibers", float_of_int (Runtime.live_fibers rt));
                     ("pending_events", float_of_int (Engine.pending engine));
                     ("queue_depth_max", float_of_int (Runtime.queue_depth_max rt));
                     ("health_rank", health_rank);
                   ]
                  @ match heat with None -> [] | Some h -> [ ("heat_skew", Heat.skew h) ]));
            Runtime.live_fibers rt > 0)
      end);
  (* Measured phase. *)
  let gc1 = Gc.quick_stat () in
  let t_run = now () in
  (match tr with
  | None -> ()
  | Some l ->
    l.bus <- l.bus_run;
    Engine.set_probe engine
      (Some
         {
           Engine.before = (fun () -> enter l l.dispatch);
           after = (fun () -> leave l);
         }));
  Runtime.run rt;
  let t_end = now () in
  let gc2 = Gc.quick_stat () in
  if traced then begin
    Bus.set_probe (Net.bus net) None;
    Engine.set_probe engine None
  end;
  (* Report. *)
  let sim =
    {
      build_msgs;
      issued = Array.length plan;
      completed = !completed;
      failed = !failed;
      messages = Metrics.since metrics cp;
      duration_ms = !last_done;
      latencies;
      membership = membership_lat;
      kinds = List.map (fun k -> (k, Metrics.kind_since metrics cp k)) msg_kinds;
      events = List.map (fun e -> (e, Metrics.event_since metrics cp e)) event_names;
      lock_acquires = !lock_acquires;
      lock_wait_vms = !lock_wait;
      depth_max = Runtime.queue_depth_max rt;
      depth_mean = Runtime.queue_depth_mean rt;
      violations = (match oracle with Some o -> Oracle.violation_count o | None -> 0);
      tolerated = (match oracle with Some o -> Oracle.tolerated_count o | None -> 0);
    }
  in
  let t_report = now () in
  (* Output checks, after timing stops. *)
  let problems =
    (if sim.completed + sim.failed <> sim.issued then
       [ Printf.sprintf "completed %d + failed %d <> issued %d" sim.completed sim.failed sim.issued ]
     else [])
    @ (if sim.violations > 0 then
         [ Printf.sprintf "%d oracle violations" sim.violations ]
       else [])
    @ if check then structure_problems cfg net else []
  in
  {
    sim;
    setup_s = t_run -. t_start;
    run_s = t_end -. t_run;
    total_s = t_report -. t_start;
    heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    ledger = tr;
    gc_setup = (gc0, gc1);
    gc_run = (gc1, gc2);
    problems;
  }

(* --- Metrics ------------------------------------------------------------ *)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let k = Array.length a in
    if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let ms s = s *. 1000.
let mib words = words *. float_of_int (Sys.word_size / 8) /. 1048576.
let pct a b = (a /. b -. 1.) *. 100.

let percentile (s : sim) kind p = Timing.percentile (List.assoc kind s.latencies) p

(* The layers that tile a traced round's phases: with [setup.other_ms]
   they sum to the setup wall, and they sum to the run wall exactly. *)
let setup_layers l =
  l.join_find.self +. l.join_accept.self +. l.bulk_insert.self +. l.bus_setup.busy
  +. l.setup_workload.self +. l.setup_observers.self

let run_layers r l =
  (r.run_s -. l.dispatch.busy) +. l.dispatch.self +. l.bus_run.busy +. l.monitor.busy
  +. l.series.busy +. l.oracle.busy

(* End-to-end metrics, from untraced rounds: (name, unit, value). *)
let end_to_end (cfg : Driver.config) rounds =
  let s = (List.hd rounds).sim in
  let med f = median (List.map f rounds) in
  let per a b = float_of_int a /. float_of_int b in
  [
    ("setup_s", "s", med (fun r -> r.setup_s));
    ("total_s", "s", med (fun r -> r.total_s));
    ("wall_ops_per_s", "ops/s", med (fun r -> float_of_int r.sim.completed /. r.run_s));
    (* The first round's peak: later rounds can only raise it, and how
       many rounds fit depends on the machine. *)
    ("peak_heap_mb", "MiB", mib (float_of_int (List.hd rounds).heap_words));
    ("build_msgs_per_peer", "msgs", per s.build_msgs cfg.n);
    ("msgs_per_op", "msgs", per s.messages s.completed);
    ("exact_p50_ms", "virtual_ms", percentile s "exact" 50.);
    ("exact_p99_ms", "virtual_ms", percentile s "exact" 99.);
    ("range_p99_ms", "virtual_ms", percentile s "range" 99.);
    ("sim_ops_per_s", "ops/virtual_s", float_of_int s.completed /. s.duration_ms *. 1000.);
  ]

(* Per-layer metrics. Span times come from the traced rounds; GC counts
   from the untraced ones, since spans allocate. *)
let per_layer ~traced ~untraced =
  let s = (List.hd traced).sim in
  let led f = median (List.map (fun r -> f (Option.get r.ledger)) traced) in
  let gc pick f =
    median
      (List.map
         (fun r ->
           let a, b = pick r in
           f a b)
         untraced)
  in
  let minor a b = mib (b.Gc.minor_words -. a.Gc.minor_words) in
  let majors a b = float_of_int (b.Gc.major_collections - a.Gc.major_collections) in
  let count v = float_of_int v in
  let calls f = count (f (Option.get (List.hd traced).ledger)).calls in
  let traced_med f = median (List.map f traced) in
  let untraced_med f = median (List.map f untraced) in
  [
    ("join.find.calls", "count", calls (fun l -> l.join_find));
    ("join.find.self_ms", "ms", led (fun l -> ms l.join_find.self));
    ("join.accept.calls", "count", calls (fun l -> l.join_accept));
    ("join.accept.self_ms", "ms", led (fun l -> ms l.join_accept.self));
    ("update.bulk_insert.self_ms", "ms", led (fun l -> ms l.bulk_insert.self));
    ("bus.setup.calls", "count", calls (fun l -> l.bus_setup));
    ("bus.setup.busy_ms", "ms", led (fun l -> ms l.bus_setup.busy));
    ("setup.workload.self_ms", "ms", led (fun l -> ms l.setup_workload.self));
    ("setup.observers.self_ms", "ms", led (fun l -> ms l.setup_observers.self));
    ( "setup.other_ms",
      "ms",
      traced_med (fun r -> ms (r.setup_s -. setup_layers (Option.get r.ledger))) );
    ("setup.traced_ms", "ms", traced_med (fun r -> ms r.setup_s));
    ("gc.setup.minor_mb", "MiB", gc (fun r -> r.gc_setup) minor);
    ("gc.setup.major_collections", "count", gc (fun r -> r.gc_setup) majors);
    ("engine.dispatch.calls", "count", calls (fun l -> l.dispatch));
    ("engine.dispatch.busy_ms", "ms", led (fun l -> ms l.dispatch.busy));
    ( "engine.loop.self_ms",
      "ms",
      traced_med (fun r -> ms (r.run_s -. (Option.get r.ledger).dispatch.busy)) );
    ("bus.run.calls", "count", calls (fun l -> l.bus_run));
    ("bus.run.busy_ms", "ms", led (fun l -> ms l.bus_run.busy));
    ("protocol.self_ms", "ms", led (fun l -> ms l.dispatch.self));
    ("run.traced_ms", "ms", traced_med (fun r -> ms r.run_s));
    ("gc.run.minor_mb", "MiB", gc (fun r -> r.gc_run) minor);
    ( "gc.run.promoted_mb",
      "MiB",
      gc (fun r -> r.gc_run) (fun a b -> mib (b.Gc.promoted_words -. a.Gc.promoted_words)) );
    ("gc.run.major_collections", "count", gc (fun r -> r.gc_run) majors);
    ("runtime.lock.acquires", "count", count s.lock_acquires);
    ("runtime.lock.wait_vms", "virtual_ms", s.lock_wait_vms);
    ("runtime.queue_depth.max", "msgs", count s.depth_max);
    ("runtime.queue_depth.mean", "msgs", s.depth_mean);
    ("monitor.tick.calls", "count", calls (fun l -> l.monitor));
    ("monitor.tick.busy_ms", "ms", led (fun l -> ms l.monitor.busy));
    ("series.sample.calls", "count", calls (fun l -> l.series));
    ("series.sample.busy_ms", "ms", led (fun l -> ms l.series.busy));
    ("oracle.check.calls", "count", calls (fun l -> l.oracle));
    ("oracle.check.busy_ms", "ms", led (fun l -> ms l.oracle.busy));
    ("oracle.tolerated", "count", count s.tolerated);
    ("membership_p99_ms", "virtual_ms", Timing.percentile s.membership 99.);
  ]
  @ List.map (fun (k, v) -> ("msgs." ^ k, "msgs", count v)) s.kinds
  @ List.map (fun (e, v) -> ("events." ^ e, "count", count v)) s.events
  @ [
      ( "trace.overhead_pct",
        "%",
        pct (traced_med (fun r -> r.run_s)) (untraced_med (fun r -> r.run_s)) );
      ( "trace.setup_overhead_pct",
        "%",
        pct (traced_med (fun r -> r.setup_s)) (untraced_med (fun r -> r.setup_s)) );
    ]

(* --- Measurement loop ----------------------------------------------------- *)

(* Rounds run while the next one (predicted from the median so far) fits
   in the budget, with a floor: three untraced rounds, or — traced —
   one traced and one untraced, alternating. *)
let measure (cfg : Driver.config) ~seconds ~trace =
  let started = now () in
  let min_rounds = if trace then 2 else 3 in
  let rec loop acc k =
    let enough =
      k >= min_rounds
      && now () -. started +. median (List.map (fun r -> r.total_s) acc)
         > float_of_int seconds
    in
    if enough then List.rev acc
    else begin
      Gc.compact ();
      let r = round ~traced:(trace && k mod 2 = 0) ~check:(k = 0) cfg in
      Printf.eprintf "round %d%s: setup %.3f s, run %.3f s, total %.3f s\n%!" (k + 1)
        (if Option.is_some r.ledger then " (traced)" else "")
        r.setup_s r.run_s r.total_s;
      loop (r :: acc) (k + 1)
    end
  in
  loop [] 0

let run_problems rounds =
  let first = fingerprint (List.hd rounds).sim in
  List.concat_map (fun r -> r.problems) rounds
  @
  if List.for_all (fun r -> String.equal (fingerprint r.sim) first) rounds then []
  else [ "rounds disagree on simulated metrics" ]

let result ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
             metrics) );
    ]

let metrics_for cfg ~trace rounds =
  let traced, untraced = List.partition (fun r -> Option.is_some r.ledger) rounds in
  if trace then per_layer ~traced ~untraced else end_to_end cfg untraced

(* --- Parity with Driver.run ---------------------------------------------- *)

let small_n = 200
let small_ops = 400

let observers_off (cfg : Driver.config) =
  { cfg with oracle = false; heat = false; monitor_every_ms = 0.; series_every_ms = 0. }

(* With observers off, a round must count what [Driver.run] counts on
   the same config, and a traced round must reproduce an untraced one. *)
let parity_problems w ~seed =
  let cfg = observers_off (config w ~seed ~n:small_n ~ops:small_ops) in
  let d = Driver.run cfg in
  let plain = round ~traced:false ~check:false cfg in
  let traced = round ~traced:true ~check:false cfg in
  let s = plain.sim in
  let digest t = Json.to_string (Timing.json t) in
  let differs name a b =
    if a = b then [] else [ Printf.sprintf "%s: %s differs from Driver.run" w.name name ]
  in
  List.concat
    [
      differs "messages" s.messages d.messages;
      differs "completed" s.completed d.completed;
      differs "failed" s.failed d.failed;
      differs "duration" s.duration_ms d.duration_ms;
      List.concat_map
        (fun (k, t) -> differs (k ^ " latency") (digest t) (digest (List.assoc k d.latencies)))
        s.latencies;
      (if String.equal (fingerprint s) (fingerprint traced.sim) then []
       else [ w.name ^ ": traced round differs from untraced round" ]);
    ]

(* --- Smoke test ------------------------------------------------------------ *)

(* Every workload at [small_n]/[small_ops], untraced and traced: each
   metric present and finite, the setup and run ledgers summing to their
   phase walls, outputs correct, parity held. *)
let smoke ~seed =
  List.concat_map
    (fun w ->
      let cfg = config w ~seed ~n:small_n ~ops:small_ops in
      let plain = round ~traced:false ~check:true cfg in
      let traced = round ~traced:true ~check:true cfg in
      let rounds = [ plain; traced ] in
      let all = metrics_for cfg ~trace:false rounds @ metrics_for cfg ~trace:true rounds in
      let l = Option.get traced.ledger in
      let sums =
        let run = run_layers traced l in
        (if setup_layers l <= traced.setup_s then []
         else [ w.name ^ ": setup layers exceed the setup wall" ])
        @ (if Float.abs (run -. traced.run_s) <= 1e-9 +. (1e-6 *. traced.run_s) then []
           else [ w.name ^ ": run layers do not sum to the run wall" ])
        @
        if l.join_find.calls = cfg.n - 1 && l.join_accept.calls = cfg.n - 1 then []
        else [ w.name ^ ": traced build did not span every join" ]
      in
      List.filter_map
        (fun (name, _, v) ->
          if Float.is_finite v then None else Some (Printf.sprintf "%s: %s = %g" w.name name v))
        all
      @ List.map (fun p -> w.name ^ ": " ^ p) (run_problems rounds)
      @ sums @ parity_problems w ~seed)
    workloads

(* --- Command line ------------------------------------------------------------ *)

let fail_with msgs =
  List.iter prerr_endline msgs;
  exit 1

let () =
  let workload = ref "" and seed = ref 2005 and seconds = ref 12 and trace = ref 0 in
  let json_out = ref "" and parity = ref false and smoke_mode = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 2005; held-out 4242)");
      ("--seconds", Arg.Set_int seconds, "S wall seconds of rounds to measure (default 12)");
      ("--trace", Arg.Set_int trace, "0|1 report end-to-end (0) or per-layer (1) metrics");
      ("--json", Arg.Set_string json_out, "FILE also write the result object to FILE");
      ("--check-parity", Arg.Set parity, " compare with Driver.run at a reduced size and exit");
      ("--smoke", Arg.Set smoke_mode, " run every workload at a reduced size and exit");
    ]
  in
  let usage =
    "baton_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--json FILE]\n\
     workloads: "
    ^ String.concat ", " (List.map (fun w -> w.name) workloads)
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !smoke_mode then begin
    match smoke ~seed:!seed with
    | [] -> print_endline "smoke: ok"
    | ps -> fail_with ps
  end
  else begin
    let w =
      match workload_named !workload with
      | Some w -> w
      | None -> fail_with [ "unknown workload " ^ !workload; usage ]
    in
    if !parity then begin
      match parity_problems w ~seed:!seed with
      | [] -> print_endline ("parity: ok (" ^ w.name ^ ")")
      | ps -> fail_with ps
    end
    else begin
      if !trace <> 0 && !trace <> 1 then fail_with [ "--trace takes 0 or 1" ];
      if !seconds < 1 then fail_with [ "--seconds must be at least 1" ];
      let cfg = config w ~seed:!seed ~n:w.n ~ops:w.ops in
      let rounds = measure cfg ~seconds:!seconds ~trace:(!trace = 1) in
      let problems = run_problems rounds in
      let metrics = metrics_for cfg ~trace:(!trace = 1) rounds in
      let sum f = List.fold_left (fun acc r -> acc + f r.sim) 0 rounds in
      let res =
        result ~correct:(problems = [])
          ~attempted:(sum (fun s -> s.issued))
          ~failed:(sum (fun s -> s.failed))
          metrics
      in
      List.iter prerr_endline problems;
      Printf.eprintf "%s: %d rounds, seed %d\n" w.name (List.length rounds) !seed;
      List.iter
        (fun (name, unit, v) -> Printf.printf "%s %s %s\n" name (Json.float_repr v) unit)
        metrics;
      if !json_out <> "" then begin
        let oc = open_out !json_out in
        output_string oc (Json.to_pretty_string res);
        output_char oc '\n';
        close_out oc
      end;
      print_endline (Json.to_string res);
      if problems <> [] then exit 1
    end
  end
