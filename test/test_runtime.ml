(* Concurrent runtime and workload driver. *)

module Runtime = Baton_runtime.Runtime
module Driver = Baton_runtime.Driver
module Latency = Baton_sim.Latency
module Metrics = Baton_sim.Metrics
module Json = Baton_obs.Json
module Rng = Baton_util.Rng
module Datagen = Baton_workload.Datagen
module Net = Baton.Net

let build ~seed n ~keys_per_node =
  let net = Baton.Network.build ~seed n in
  let gen = Datagen.uniform (Rng.create ((seed * 31) + 7)) in
  let keys = Datagen.take gen (keys_per_node * n) in
  Array.iter
    (fun k -> ignore (Baton.Update.insert net ~from:(Net.random_peer net) k))
    keys;
  (net, keys)

let test_sleep_and_clock () =
  let net, _ = build ~seed:11 4 ~keys_per_node:1 in
  let rt = Runtime.create net in
  let log = ref [] in
  Runtime.spawn rt
    (fun () ->
      Runtime.sleep 50.;
      log := ("a", Runtime.now rt) :: !log;
      Runtime.sleep 25.;
      log := ("b", Runtime.now rt) :: !log)
    ~on_done:(fun r -> Alcotest.(check bool) "ok" true (Result.is_ok r));
  Runtime.spawn rt
    (fun () ->
      Runtime.sleep 60.;
      log := ("c", Runtime.now rt) :: !log)
    ~on_done:(fun _ -> ());
  Runtime.run rt;
  Alcotest.(check (list (pair string (float 0.0))))
    "interleaved by virtual time"
    [ ("a", 50.); ("c", 60.); ("b", 75.) ]
    (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 75. (Runtime.now rt);
  Alcotest.(check int) "no live fibers" 0 (Runtime.live_fibers rt)

let test_both_overlaps () =
  let net, _ = build ~seed:11 4 ~keys_per_node:1 in
  let rt = Runtime.create net in
  let result = ref ("", 0) in
  Runtime.spawn rt
    (fun () ->
      Runtime.both
        (fun () ->
          Runtime.sleep 100.;
          "left")
        (fun () ->
          Runtime.sleep 150.;
          7))
    ~on_done:(function
      | Ok v -> result := v
      | Error e -> raise e);
  Runtime.run rt;
  Alcotest.(check (pair string int)) "both results" ("left", 7) !result;
  (* Concurrent children: total time is max(100, 150), not the sum. *)
  Alcotest.(check (float 0.0)) "critical path, not sum" 150. (Runtime.now rt)

let test_both_propagates_errors () =
  let net, _ = build ~seed:11 4 ~keys_per_node:1 in
  let rt = Runtime.create net in
  let got = ref None in
  Runtime.spawn rt
    (fun () ->
      Runtime.both
        (fun () -> Runtime.sleep 10.)
        (fun () ->
          Runtime.sleep 5.;
          failwith "boom"))
    ~on_done:(fun r -> got := Some r);
  Runtime.run rt;
  match !got with
  | Some (Error (Failure msg)) ->
    Alcotest.(check string) "child's exception" "boom" msg
  | _ -> Alcotest.fail "expected the child's exception"

let test_lock_fifo () =
  let net, _ = build ~seed:11 4 ~keys_per_node:1 in
  let rt = Runtime.create net in
  let lock = Runtime.Lock.create () in
  let order = ref [] and inside = ref false in
  let critical i =
    Runtime.Lock.with_lock lock (fun () ->
        Alcotest.(check bool) "mutual exclusion" false !inside;
        inside := true;
        order := i :: !order;
        Runtime.sleep 10.;
        inside := false)
  in
  for i = 1 to 3 do
    Runtime.spawn rt (fun () -> critical i) ~on_done:(fun _ -> ())
  done;
  Runtime.run rt;
  Alcotest.(check (list int)) "FIFO hand-off" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check bool) "released" false (Runtime.Lock.held lock)

(* Shared holders overlap in virtual time. *)
let test_lock_readers_overlap () =
  let rt = Runtime.of_bus (Baton_sim.Bus.create ()) in
  let lock = Runtime.Lock.create () in
  let done_at = ref [] in
  for _ = 1 to 3 do
    Runtime.spawn rt
      (fun () ->
        Runtime.Lock.with_shared lock (fun () ->
            Alcotest.(check bool) "held" true (Runtime.Lock.held lock);
            Runtime.sleep 10.);
        done_at := Runtime.now rt :: !done_at)
      ~on_done:(fun _ -> ())
  done;
  Runtime.run rt;
  Alcotest.(check (list (float 0.))) "all three at once" [ 10.; 10.; 10. ]
    !done_at;
  Alcotest.(check bool) "released" false (Runtime.Lock.held lock)

(* A queued writer blocks readers that arrive after it: arrival order,
   not side, decides admission. *)
let test_lock_writer_blocks_later_readers () =
  let rt = Runtime.of_bus (Baton_sim.Bus.create ()) in
  let lock = Runtime.Lock.create () in
  let entered = ref [] in
  let client name ~at ~with_side ~hold =
    Runtime.spawn ~at rt
      (fun () ->
        with_side lock (fun () ->
            entered := (name, Runtime.now rt) :: !entered;
            Runtime.sleep hold))
      ~on_done:(fun _ -> ())
  in
  client "r1" ~at:0. ~with_side:Runtime.Lock.with_shared ~hold:10.;
  client "w" ~at:1. ~with_side:Runtime.Lock.with_lock ~hold:10.;
  client "r2" ~at:2. ~with_side:Runtime.Lock.with_shared ~hold:10.;
  Runtime.run rt;
  Alcotest.(check (list (pair string (float 0.))))
    "r2 waits for the writer queued before it"
    [ ("r1", 0.); ("w", 10.); ("r2", 20.) ]
    (List.rev !entered)

(* A release hands the lock to a queued reader, whose resumption is
   still pending when a new reader arrives at the same instant. The
   newcomer may not overtake the grant: it queues, and the grant admits
   it when it resumes. *)
let test_lock_pending_grant_keeps_order () =
  let rt = Runtime.of_bus (Baton_sim.Bus.create ()) in
  let lock = Runtime.Lock.create () in
  let entered = ref [] in
  let enter name = entered := (name, Runtime.now rt) :: !entered in
  Runtime.spawn rt
    (fun () ->
      Runtime.Lock.with_lock lock (fun () -> Runtime.sleep 10.);
      (* The release just granted "queued"; it has not resumed yet. *)
      Runtime.Lock.with_shared lock (fun () -> enter "newcomer"))
    ~on_done:(fun _ -> ());
  Runtime.spawn ~at:1. rt
    (fun () -> Runtime.Lock.with_shared lock (fun () -> enter "queued"))
    ~on_done:(fun _ -> ());
  Runtime.run rt;
  Alcotest.(check (list (pair string (float 0.))))
    "the grant resumes first, then admits the newcomer"
    [ ("queued", 10.); ("newcomer", 10.) ]
    (List.rev !entered);
  Alcotest.(check bool) "released" false (Runtime.Lock.held lock)

(* An exception inside either side releases that side. *)
let test_lock_exception_releases () =
  let rt = Runtime.of_bus (Baton_sim.Bus.create ()) in
  let lock = Runtime.Lock.create () in
  let writer_in = ref (-1.) in
  let boom with_side () =
    match with_side lock (fun () -> Runtime.sleep 5.; failwith "boom") with
    | () -> Alcotest.fail "expected the exception"
    | exception Failure _ -> ()
  in
  Runtime.spawn rt (boom Runtime.Lock.with_shared) ~on_done:(fun _ -> ());
  Runtime.spawn rt (boom Runtime.Lock.with_shared) ~on_done:(fun _ -> ());
  Runtime.spawn ~at:1. rt (boom Runtime.Lock.with_lock) ~on_done:(fun _ -> ());
  Runtime.spawn ~at:2. rt
    (fun () ->
      Runtime.Lock.with_lock lock (fun () -> writer_in := Runtime.now rt))
    ~on_done:(fun _ -> ());
  Runtime.run rt;
  Alcotest.(check (float 0.)) "both sides were released" 10. !writer_in;
  Alcotest.(check bool) "released" false (Runtime.Lock.held lock)

(* Under a runtime, [Bus.send] charges every outcome on the virtual
   clock: a delivery its pair latency, an unreachable or lost message
   the timeout, a self-send and a bare [post] nothing. *)
let test_bus_send_outcomes_on_runtime () =
  let bus = Baton_sim.Bus.create () in
  let lat = Latency.create ~seed:3 () in
  let rt = Runtime.of_bus ~timeout_ms:300. ~latency:lat bus in
  let clock = ref [] in
  let step f =
    (try f () with Baton_sim.Bus.Unreachable _ | Baton_sim.Bus.Timeout _ -> ());
    clock := Runtime.now rt :: !clock
  in
  Baton_sim.Bus.fail bus 3;
  Runtime.spawn rt
    (fun () ->
      step (fun () -> Baton_sim.Bus.send bus ~src:1 ~dst:2 ~kind:"x");
      step (fun () -> Baton_sim.Bus.send bus ~src:1 ~dst:3 ~kind:"x");
      Baton_sim.Bus.set_faults bus ~seed:1 ~drop_rate:1.0 ~transient_rate:0. ();
      step (fun () -> Baton_sim.Bus.send bus ~src:1 ~dst:2 ~kind:"x");
      Baton_sim.Bus.clear_faults bus;
      step (fun () -> Baton_sim.Bus.send bus ~src:1 ~dst:1 ~kind:"x");
      step (fun () -> Baton_sim.Bus.post bus ~src:1 ~dst:2 ~kind:"x"))
    ~on_done:(fun _ -> ());
  Runtime.run rt;
  let d = Latency.of_pair lat ~src:1 ~dst:2 in
  Alcotest.(check (list (float 1e-9))) "virtual instants"
    [ d; d +. 300.; d +. 600.; d +. 600.; d +. 600. ]
    (List.rev !clock);
  Alcotest.(check int) "every transmission counted" 4
    (Metrics.total (Baton_sim.Bus.metrics bus));
  Alcotest.(check bool) "hook removed after the run" false
    (Baton_sim.Bus.wait_installed bus)

(* The PR's acceptance bar: a range query fanning out over many peers
   finishes in strictly less virtual time than the serial sum of its
   hop latencies, while transmitting exactly the same messages. *)
let test_range_critical_path () =
  let n = 80 in
  let net, _ = build ~seed:42 n ~keys_per_node:5 in
  let lat = Latency.create ~seed:7 () in
  let from = Net.random_peer net in
  (* Center the query on a narrow range away from the domain edges and
     span ~8 peer widths each side, so the locate step lands in the
     middle and both directional sweeps have real work — the tree's
     dyadic range splits make naive lo/hi choices degenerate. *)
  let w = (Datagen.domain_hi - Datagen.domain_lo) / n in
  let target =
    Net.peers net
    |> List.filter (fun p ->
           p.Baton.Node.range.Baton.Range.lo >= Datagen.domain_lo + (8 * w)
           && p.Baton.Node.range.Baton.Range.hi <= Datagen.domain_hi - (8 * w))
    |> List.fold_left
         (fun best p ->
           let width q =
             q.Baton.Node.range.Baton.Range.hi - q.Baton.Node.range.Baton.Range.lo
           in
           match best with
           | Some b when width b <= width p -> best
           | _ -> Some p)
         None
    |> Option.get
  in
  let c =
    target.Baton.Node.range.Baton.Range.lo
    + ((target.Baton.Node.range.Baton.Range.hi
       - target.Baton.Node.range.Baton.Range.lo)
      / 2)
  in
  let lo = c - (8 * w) and hi = c + (8 * w) in
  let metrics = Net.metrics net in
  let cp = Metrics.checkpoint metrics in
  (* The serial side: the same query alone on a runtime, without
     [~par], so its sweeps run one after the other. *)
  let serial_out, serial_ms =
    Baton_experiments.Common.time_alone (Runtime.create ~latency:lat net)
      (fun () -> Baton.Search.range net ~from ~lo ~hi)
  in
  let serial_msgs = Metrics.since metrics cp in
  let rt = Runtime.create ~latency:lat net in
  let cp = Metrics.checkpoint metrics in
  let par_out = ref None in
  Runtime.spawn rt
    (fun () ->
      Baton.Search.range
        ~par:(fun l r -> Runtime.both l r)
        net ~from ~lo ~hi)
    ~on_done:(function
      | Ok o -> par_out := Some o
      | Error e -> raise e);
  Runtime.run rt;
  let par_msgs = Metrics.since metrics cp in
  let critical_ms = Runtime.now rt in
  let par_out = Option.get !par_out in
  Alcotest.(check bool) "serial complete" true serial_out.Baton.Search.complete;
  Alcotest.(check (list int))
    "same answer" serial_out.Baton.Search.keys par_out.Baton.Search.keys;
  Alcotest.(check int) "paper metric unchanged" serial_msgs par_msgs;
  Alcotest.(check bool) "both sweeps visited peers" true
    (par_out.Baton.Search.nodes_visited > 2);
  Alcotest.(check bool)
    (Printf.sprintf "critical path %.1f < serial sum %.1f" critical_ms
       serial_ms)
    true
    (critical_ms < serial_ms)

let run_driver cfg = Json.to_string (Driver.report_json (Driver.run cfg))

(* Churn-heavy exercises every operation kind, the membership lock and
   failure paths; byte-identical JSON means the whole interleaving —
   clock, latencies, churn victims — replayed exactly. *)
let test_driver_deterministic () =
  let cfg =
    Driver.config ~seed:99 ~keys_per_node:3 ~clients:8 ~ops:120 ~n:60
      ~mix:Driver.churn_heavy ()
  in
  let a = run_driver cfg in
  let b = run_driver cfg in
  Alcotest.(check string) "same seed, byte-identical report" a b;
  Alcotest.(check bool) "non-trivial run" true (String.length a > 100)

let test_driver_accounts_every_op () =
  let cfg =
    Driver.config ~seed:5 ~keys_per_node:3 ~clients:4 ~ops:80 ~n:40
      ~arrival:(Driver.Open { rate_per_s = 500. })
      ~mix:Driver.read_heavy ()
  in
  let r = Driver.run cfg in
  Alcotest.(check int) "issued all" 80 r.Driver.ops_issued;
  Alcotest.(check int) "completed + failed = issued" 80
    (r.Driver.completed + r.Driver.failed);
  Alcotest.(check bool) "virtual time advanced" true (r.Driver.duration_ms > 0.);
  Alcotest.(check bool) "queues observed" true (r.Driver.depth_max >= 1)

let test_bench_json_schema () =
  let cfg =
    Driver.config ~seed:5 ~keys_per_node:2 ~clients:4 ~ops:40 ~n:20
      ~mix:Driver.read_heavy ()
  in
  let doc = Json.to_string (Driver.bench_json [ ("baton", [ Driver.run cfg ]) ]) in
  let contains s =
    let re = Str.regexp_string s in
    match Str.search_forward re doc 0 with
    | (_ : int) -> true
    | exception Not_found -> false
  in
  Alcotest.(check bool) "schema field" true
    (contains Baton_runtime.Report_check.runtime_schema);
  List.iter
    (fun field -> Alcotest.(check bool) field true (contains field))
    [
      "\"overlays\""; "\"overlay\""; "\"runs\""; "\"throughput_ops_per_s\"";
      "\"latency_ms\""; "\"queue_depth\""; "\"p99_ms\"";
    ]

(* The monitor is a pure observer: switching it on must not move the
   paper's message metric, the failure schedule or the virtual clock. *)
let test_monitor_is_workload_neutral () =
  let cfg ~monitor_every_ms =
    Driver.config ~seed:99 ~keys_per_node:3 ~clients:8 ~ops:120 ~n:60
      ~monitor_every_ms ~mix:Driver.churn_heavy ()
  in
  let off = Driver.run (cfg ~monitor_every_ms:0.) in
  let on = Driver.run (cfg ~monitor_every_ms:250.) in
  Alcotest.(check int) "messages unchanged" off.Driver.messages
    on.Driver.messages;
  Alcotest.(check int) "cache messages unchanged" off.Driver.cache_messages
    on.Driver.cache_messages;
  Alcotest.(check (pair int int)) "same completions and failures"
    (off.Driver.completed, off.Driver.failed)
    (on.Driver.completed, on.Driver.failed);
  Alcotest.(check (float 0.0)) "same virtual duration" off.Driver.duration_ms
    on.Driver.duration_ms;
  Alcotest.(check bool) "off-run report carries no health section" true
    (off.Driver.health = Json.Null);
  Alcotest.(check bool) "on-run report carries one" true
    (on.Driver.health <> Json.Null)

(* The acceptance scenario: a churn-heavy run produces a non-empty
   health time series whose events include at least one degraded -> ok
   recovery (a tick caught a membership op mid-flight, then the overlay
   healed), and the whole section replays byte-identically. *)
let test_churn_health_series () =
  let cfg =
    Driver.config ~seed:99 ~keys_per_node:3 ~clients:8 ~ops:120 ~n:60
      ~monitor_every_ms:400. ~mix:Driver.churn_heavy ()
  in
  let health () = Json.to_string (Driver.run cfg).Driver.health in
  let doc = health () in
  let contains s =
    let re = Str.regexp_string s in
    match Str.search_forward re doc 0 with
    | (_ : int) -> true
    | exception Not_found -> false
  in
  Alcotest.(check bool) "samples present" true (contains "\"samples\":[{");
  (* A degraded -> ok edge, not just any transition. Event objects
     serialize with sorted keys, so within one object "from" precedes
     "to" by well under 80 bytes. *)
  let recovery =
    let rec scan pos =
      match
        Str.search_forward (Str.regexp_string "\"from\":\"degraded\"") doc pos
      with
      | p ->
        let window = String.sub doc p (min 80 (String.length doc - p)) in
        (try
           ignore (Str.search_forward (Str.regexp_string "\"to\":\"ok\"") window 0);
           true
         with Not_found -> scan (p + 1))
      | exception Not_found -> false
    in
    scan 0
  in
  Alcotest.(check bool) "at least one degraded -> ok recovery" true recovery;
  Alcotest.(check bool) "run ends healthy" true
    (contains "\"final\":\"ok\"");
  Alcotest.(check string) "health section byte-identical across runs" doc
    (health ())

(* The arrival model is validated with the rest of the config, before
   anything is built — also for overlays whose sequential path never
   reads it. *)
let test_config_rejects_negative_think () =
  Alcotest.check_raises "negative think_ms"
    (Invalid_argument "Driver.config: negative think_ms") (fun () ->
      ignore
        (Driver.config ~overlay:"multiway"
           ~arrival:(Driver.Closed { think_ms = -5. })
           ~n:20 ~mix:Driver.read_heavy ()
          : Driver.config))

let test_config_rejects_zero_rate () =
  Alcotest.check_raises "rate_per_s = 0"
    (Invalid_argument "Driver.config: rate_per_s <= 0") (fun () ->
      ignore
        (Driver.config ~overlay:"chord"
           ~arrival:(Driver.Open { rate_per_s = 0. })
           ~n:20 ~mix:Driver.read_heavy ()
          : Driver.config))

(* Regression: an empty key set used to build the whole network and
   then die in [Zipf.create]; the config now refuses it up front. *)
let test_config_rejects_empty_key_set () =
  Alcotest.check_raises "keys_per_node = 0"
    (Invalid_argument "Driver.config: keys_per_node < 1") (fun () ->
      ignore
        (Driver.config ~keys_per_node:0 ~n:20 ~mix:Driver.read_heavy ()
          : Driver.config))

(* A fault schedule needs a crash surface. Chord and the multiway tree
   have none, so any schedule on any mix is rejected; the skip graph's
   joins and leaves do not survive faults, so it takes a schedule only
   on a churn-free mix. *)
let faulted overlay spec mix =
  match Baton_sim.Partition.parse spec with
  | Error e -> Alcotest.fail e
  | Ok fault_schedule ->
    Driver.config ~overlay ~fault_schedule ~n:20 ~mix ()

let fault_specs =
  [ "partition@100+200:k=2"; "subtree@100"; "gray@100+200:peers=2";
    "partition@500+1200:k=2;subtree@2200;gray@300+2500:peers=4" ]

let all_mixes = Driver.mixes @ [ Driver.adversarial ]

let test_config_rejects_faults_without_surface () =
  List.iter
    (fun overlay ->
      List.iter
        (fun spec ->
          List.iter
            (fun mix ->
              Alcotest.check_raises
                (Printf.sprintf "%s %s %s" overlay mix.Driver.mix_name spec)
                (Invalid_argument
                   (Printf.sprintf
                      "Driver.config: %s has no fault recovery path; fault \
                       schedules run on baton, skip-graph"
                      overlay))
                (fun () -> ignore (faulted overlay spec mix : Driver.config)))
            all_mixes)
        fault_specs)
    [ "chord"; "multiway" ];
  List.iter
    (fun spec ->
      Alcotest.check_raises ("skip-graph churn-heavy " ^ spec)
        (Invalid_argument
           "Driver.config: the skip graph's joins and leaves do not survive \
            faults; pick a churn-free mix")
        (fun () ->
          ignore (faulted "skip-graph" spec Driver.churn_heavy : Driver.config)))
    fault_specs

let test_config_takes_skip_graph_faults_churn_free () =
  List.iter
    (fun spec ->
      List.iter
        (fun mix ->
          let cfg = faulted "skip-graph" spec mix in
          Alcotest.(check bool)
            (Printf.sprintf "%s %s kept" mix.Driver.mix_name spec)
            true
            (cfg.Driver.fault_schedule <> []))
        (List.filter (fun m -> m.Driver.churn_w = 0) all_mixes))
    fault_specs

(* The comparison overlays run on the fiber runtime under the
   shared/exclusive lock: concurrency changes only the clock. At 32
   clients and at 1 they count the same messages, completions and
   failures with zero oracle violations, and 32 clients finish sooner
   in virtual time. *)
let test_overlays_concurrent_match_serial () =
  List.iter
    (fun overlay ->
      let run clients =
        Driver.run
          (Driver.config ~overlay ~seed:7 ~keys_per_node:3 ~clients ~ops:120
             ~n:60 ~oracle:true ~mix:Driver.churn_heavy ())
      in
      let many = run 32 and one = run 1 in
      let counts (r : Driver.report) =
        (r.Driver.messages, r.Driver.completed, r.Driver.failed)
      in
      Alcotest.(check (triple int int int))
        (overlay ^ ": same messages, completions, failures")
        (counts one) (counts many);
      List.iter
        (fun (r : Driver.report) ->
          Alcotest.(check int) (overlay ^ ": no violations") 0
            (Baton_obs.Oracle.violation_count (Option.get r.Driver.oracle)))
        [ many; one ];
      Alcotest.(check bool)
        (Printf.sprintf "%s: 32 clients (%.0f ms) beat 1 (%.0f ms)" overlay
           many.Driver.duration_ms one.Driver.duration_ms)
        true
        (many.Driver.duration_ms < one.Driver.duration_ms))
    [ "chord"; "multiway"; "skip-graph" ]

let suite =
  [
    Alcotest.test_case "sleep/virtual clock" `Quick test_sleep_and_clock;
    Alcotest.test_case "both overlaps children" `Quick test_both_overlaps;
    Alcotest.test_case "both propagates errors" `Quick test_both_propagates_errors;
    Alcotest.test_case "lock FIFO + exclusion" `Quick test_lock_fifo;
    Alcotest.test_case "lock readers overlap" `Quick test_lock_readers_overlap;
    Alcotest.test_case "lock writer blocks later readers" `Quick
      test_lock_writer_blocks_later_readers;
    Alcotest.test_case "lock pending grant keeps order" `Quick
      test_lock_pending_grant_keeps_order;
    Alcotest.test_case "lock exception releases" `Quick
      test_lock_exception_releases;
    Alcotest.test_case "bus send outcomes on runtime" `Quick
      test_bus_send_outcomes_on_runtime;
    Alcotest.test_case "range critical path < serial sum" `Quick
      test_range_critical_path;
    Alcotest.test_case "driver deterministic" `Quick test_driver_deterministic;
    Alcotest.test_case "driver accounts every op" `Quick
      test_driver_accounts_every_op;
    Alcotest.test_case "bench json schema" `Quick test_bench_json_schema;
    Alcotest.test_case "monitor is workload-neutral" `Quick
      test_monitor_is_workload_neutral;
    Alcotest.test_case "churn health series" `Quick test_churn_health_series;
    Alcotest.test_case "config rejects negative think" `Quick
      test_config_rejects_negative_think;
    Alcotest.test_case "config rejects zero open rate" `Quick
      test_config_rejects_zero_rate;
    Alcotest.test_case "config rejects empty key set" `Quick
      test_config_rejects_empty_key_set;
    Alcotest.test_case "config rejects faults without surface" `Quick
      test_config_rejects_faults_without_surface;
    Alcotest.test_case "config takes skip-graph faults churn-free" `Quick
      test_config_takes_skip_graph_faults_churn_free;
    Alcotest.test_case "overlays concurrent = serial counts" `Quick
      test_overlays_concurrent_match_serial;
  ]
