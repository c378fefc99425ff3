(* Observability layer: per-operation episodes through [Net.with_op],
   the CLI-facing exports, the invariant that observing a run never
   changes what it measures, and the hooks surviving [Net.save]. *)

module Bus = Baton_sim.Bus
module Metrics = Baton_sim.Metrics
module Rng = Baton_util.Rng
module Trace = Baton_obs.Trace
module Heat = Baton_obs.Heat
module Gauge = Baton_obs.Gauge
module Json = Baton_obs.Json
module N = Baton.Network
module Net = Baton.Net
module Msg = Baton.Msg
module Search = Baton.Search

let bare_net () = Net.create ~domain:(Baton.Range.make ~lo:0 ~hi:1000) ()

let traced net =
  let tr = Trace.create () in
  Net.set_tracer net (Some tr);
  tr

let latest_analysis tr = Trace.analyze (Option.get (Trace.latest tr))

(* One top-level operation is one episode; a nested [with_op] (a repair
   tripped over mid-search) joins it instead of opening its own. *)
let test_with_op_digest () =
  let net = bare_net () in
  let tr = traced net in
  Net.with_op net ~kind:Msg.op_exact (fun () ->
      Net.send_raw net ~src:1 ~dst:2 ~kind:"m";
      Net.with_op net ~kind:Msg.op_repair (fun () ->
          Net.send_raw net ~src:2 ~dst:3 ~kind:"m";
          Net.send_raw net ~src:3 ~dst:4 ~kind:"m"));
  Alcotest.(check int) "one episode" 1 (Trace.episode_count tr);
  Alcotest.(check bool) "closed" false (Trace.active tr);
  let a = latest_analysis tr in
  Alcotest.(check string) "outer kind names it" Msg.op_exact a.Trace.a_op;
  Alcotest.(check int) "msgs include the nested op" 3 a.Trace.msgs;
  Alcotest.(check int) "serial sends form one chain" 3 a.Trace.crit_hops

(* A retransmission is counted in msgs but is not forward progress: the
   timed-out attempt and its retry are siblings, so the critical path
   holds one hop. *)
let test_retries_split_hops_from_msgs () =
  let net = bare_net () in
  let bus = Net.bus net in
  Bus.set_faults bus ~seed:1 ~drop_rate:0. ~transient_rate:0. ();
  Bus.stun bus 2 ~msgs:1;
  let tr = traced net in
  Net.with_op net ~kind:Msg.op_join (fun () ->
      Net.send_raw net ~src:1 ~dst:2 ~kind:"m");
  let a = latest_analysis tr in
  Alcotest.(check int) "msgs include the retry" 2 a.Trace.msgs;
  Alcotest.(check int) "one attempt timed out" 1 a.Trace.timeouts;
  Alcotest.(check int) "hops exclude the retry" 1 a.Trace.crit_hops;
  Alcotest.(check int) "retry event counted" 1
    (Metrics.event_count (Net.metrics net) Msg.ev_retry)

let test_failed_op_recorded () =
  let net = bare_net () in
  let tr = traced net in
  (match Net.with_op net ~kind:Msg.op_leave (fun () -> failwith "boom") with
  | () -> Alcotest.fail "expected exception"
  | exception Failure m -> Alcotest.(check string) "re-raised" "boom" m);
  Alcotest.(check int) "episode finalized" 1 (Trace.episode_count tr);
  Alcotest.(check bool) "no episode left open" false (Trace.active tr);
  Net.with_op net ~kind:Msg.op_exact (fun () ->
      Net.send_raw net ~src:1 ~dst:2 ~kind:"m");
  Alcotest.(check int) "next op opens its own episode" 2
    (Trace.episode_count tr)

(* The acceptance property behind `baton_cli trace --json`: two
   same-seed runs emit byte-identical JSONL. *)
let run ~seed ~trace =
  let net = N.build ~seed 300 in
  let rng = Rng.create (seed + 1) in
  for _ = 1 to 200 do
    N.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
  done;
  let tr = if trace then Some (traced net) else None in
  ignore (Search.exact net ~from:(Net.random_peer net) 123_456);
  ignore (Search.range net ~from:(Net.random_peer net) ~lo:1_000 ~hi:50_000_000);
  let jsonl =
    match tr with
    | None -> ""
    | Some tr -> String.concat "" (List.map Trace.episode_jsonl (Trace.episodes tr))
  in
  (jsonl, Metrics.total (Net.metrics net))

let test_jsonl_deterministic () =
  let a, _ = run ~seed:7 ~trace:true in
  let b, _ = run ~seed:7 ~trace:true in
  Alcotest.(check bool) "trace is non-trivial" true (String.length a > 100);
  Alcotest.(check string) "byte-identical across runs" b a

(* Tracing must not perturb the paper's metric. *)
let test_trace_does_not_perturb_metrics () =
  let _, observed = run ~seed:13 ~trace:true in
  let _, plain = run ~seed:13 ~trace:false in
  Alcotest.(check int) "Metrics.total unchanged" plain observed

(* [latest] reads the newest ring slot, also once the ring has wrapped. *)
let test_trace_latest_after_wrap () =
  let tr = Trace.create ~capacity:2 () in
  Alcotest.(check bool) "empty" true (Trace.latest tr = None);
  List.iter (fun op -> Trace.with_episode tr ~op (fun () -> ())) [ "a"; "b"; "c" ];
  let ep = Option.get (Trace.latest tr) in
  Alcotest.(check string) "newest op" "c" (Trace.analyze ep).Trace.a_op;
  Alcotest.(check bool) "last retained episode" true
    (ep == List.nth (Trace.episodes tr) 1)

let test_gauge_percentiles () =
  let g = Gauge.create ~capacity:2 () in
  Gauge.sample g ~time:1. (Array.init 100 (fun i -> i + 1));
  Gauge.sample g ~time:2. [| 5; 5 |];
  Gauge.sample g ~time:3. [| 7 |];
  Alcotest.(check int) "samples seen" 3 (Gauge.count g);
  Alcotest.(check int) "ring bounded" 2 (List.length (Gauge.samples g));
  let s = Option.get (Gauge.latest g) in
  Alcotest.(check int) "latest max" 7 s.Gauge.max;
  Alcotest.(check bool) "latest time" true (s.Gauge.time = 3.);
  Alcotest.(check string) "sample json"
    "{\"max\":7,\"mean\":7.0,\"nodes\":1,\"p50\":7,\"p95\":7,\"p99\":7,\"t\":3.0,\"total\":7}"
    (Json.to_string (Gauge.sample_json s));
  match Gauge.samples g with
  | [ s2; _ ] ->
    Alcotest.(check int) "older sample total" 10 s2.Gauge.total;
    Alcotest.(check int) "older sample p50" 5 s2.Gauge.p50
  | _ -> Alcotest.fail "expected two samples"

(* The `experiments --tiny --telemetry` tail columns of fig 8(d)/(e),
   pinned: a per-op hop is [msgs - retries] on the query's own
   result. *)
let test_telemetry_tails_pinned () =
  let module P = Baton_experiments.Params in
  let module Table = Baton_experiments.Table in
  let _, fig8d, fig8e =
    Baton_experiments.Exp_queries.run { P.tiny with P.telemetry = true }
  in
  let tails (t : Table.t) =
    List.map
      (fun row ->
        match List.rev row with
        | p99 :: p95 :: _ -> (List.hd row, p95, p99)
        | _ -> Alcotest.fail "short row")
      t.Table.rows
  in
  let cells = Alcotest.(list (triple string string string)) in
  Alcotest.check cells "fig8d baton p95/p99"
    [ ("50", "5.00", "6.00"); ("100", "7.00", "10.00"); ("200", "7.00", "9.00") ]
    (tails fig8d);
  Alcotest.check cells "fig8e baton p95/p99"
    [ ("50", "5.00", "6.00"); ("100", "8.00", "12.00"); ("200", "10.00", "16.00") ]
    (tails fig8e)

(* Every hook a network can carry, with a delivery-probe counter. *)
let hooked_net () =
  let net = N.build ~seed:3 50 in
  let tr = traced net in
  Net.set_heat net (Some (Heat.create ~lo:1 ~hi:1_000_000_000 ()));
  let deliveries = ref 0 in
  Bus.set_probe (Net.bus net)
    (Some { Bus.before = (fun () -> ()); after = (fun () -> incr deliveries) });
  (net, tr, deliveries)

let snap_path () = Filename.temp_file "baton_obs" ".snap"

let test_save_keeps_hooks () =
  let net, tr, deliveries = hooked_net () in
  let file = snap_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Net.save net file;
      Alcotest.(check bool) "tracer attached" true (Option.is_some (Net.tracer net));
      Alcotest.(check bool) "heat attached" true (Option.is_some (Net.heat net));
      Alcotest.(check bool) "probe attached" true
        (Option.is_some (Bus.probe (Net.bus net)));
      let before = !deliveries in
      let episodes = Trace.episode_count tr in
      ignore (Search.exact net ~from:(Net.random_peer net) 123_456);
      Alcotest.(check bool) "delivery probe still fires" true
        (!deliveries > before);
      Alcotest.(check int) "tracer still records" (episodes + 1)
        (Trace.episode_count tr))

(* Regression: a save that dies mid-way (unwritable path, full disk)
   must leave the bus's probe and wait hook in place. The old code
   cleared bus observers before opening the file and never put them
   back. *)
let test_failed_save_restores_observers () =
  let net, _, deliveries = hooked_net () in
  let waits = ref 0 in
  Bus.set_wait (Net.bus net) (Some (fun ~src:_ ~dst:_ _ -> incr waits));
  let bad_path =
    Filename.concat (Filename.get_temp_dir_name ()) "no/such/dir/x.snap"
  in
  (match Net.save net bad_path with
  | () -> Alcotest.fail "expected save to fail"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "tracer attached" true (Option.is_some (Net.tracer net));
  ignore (Search.exact net ~from:(Net.random_peer net) 123_456);
  Alcotest.(check bool) "probe still fires" true (!deliveries > 0);
  Alcotest.(check bool) "wait hook still fires" true (!waits > 0)

let test_load_has_no_hooks () =
  let net, _, _ = hooked_net () in
  Bus.set_wait (Net.bus net) (Some (fun ~src:_ ~dst:_ _ -> ()));
  let file = snap_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Net.save net file;
      let restored = Net.load file in
      Alcotest.(check int) "roundtrip size" (Net.size net) (Net.size restored);
      Alcotest.(check bool) "no tracer" true (Option.is_none (Net.tracer restored));
      Alcotest.(check bool) "no heat" true (Option.is_none (Net.heat restored));
      Alcotest.(check bool) "no probe" true
        (Option.is_none (Bus.probe (Net.bus restored)));
      Alcotest.(check bool) "no wait hook" false
        (Bus.wait_installed (Net.bus restored));
      Alcotest.(check bool) "original keeps its probe" true
        (Option.is_some (Bus.probe (Net.bus net)));
      Alcotest.(check bool) "original keeps its wait hook" true
        (Bus.wait_installed (Net.bus net)))

let suite =
  [
    Alcotest.test_case "with_op digest" `Quick test_with_op_digest;
    Alcotest.test_case "retries vs hops" `Quick test_retries_split_hops_from_msgs;
    Alcotest.test_case "failed op" `Quick test_failed_op_recorded;
    Alcotest.test_case "jsonl deterministic" `Quick test_jsonl_deterministic;
    Alcotest.test_case "metrics unperturbed" `Quick test_trace_does_not_perturb_metrics;
    Alcotest.test_case "trace latest after wrap" `Quick test_trace_latest_after_wrap;
    Alcotest.test_case "gauge percentiles" `Quick test_gauge_percentiles;
    Alcotest.test_case "telemetry tails pinned" `Quick test_telemetry_tails_pinned;
    Alcotest.test_case "save keeps hooks attached" `Quick test_save_keeps_hooks;
    Alcotest.test_case "failed save restores observers" `Quick
      test_failed_save_restores_observers;
    Alcotest.test_case "load has no hooks" `Quick test_load_has_no_hooks;
  ]
