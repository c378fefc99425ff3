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
  let serial_out, serial_ms =
    Latency.measure lat (Net.bus net) (fun () ->
        Baton.Search.range net ~from ~lo ~hi)
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
    (contains Driver.schema_version);
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

let suite =
  [
    Alcotest.test_case "sleep/virtual clock" `Quick test_sleep_and_clock;
    Alcotest.test_case "both overlaps children" `Quick test_both_overlaps;
    Alcotest.test_case "both propagates errors" `Quick test_both_propagates_errors;
    Alcotest.test_case "lock FIFO + exclusion" `Quick test_lock_fifo;
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
  ]
