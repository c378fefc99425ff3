(* Continuous health monitor: threshold semantics (ok / degraded /
   violated with persistence), churn-aware load sampling, and
   deterministic export. *)

module Monitor = Baton.Monitor
module Metrics = Baton_sim.Metrics
module Gauge = Baton_obs.Gauge
module Json = Baton_obs.Json
module Rng = Baton_util.Rng
module N = Baton.Network
module Net = Baton.Net

(* Wide-open thresholds so only the component under test can fail. *)
let lax = { Monitor.default_thresholds with max_skew = 1e9; max_stale_rate = 1. }

let build ~seed n =
  let net = N.build ~seed n in
  let rng = Rng.create (seed + 1) in
  for _ = 1 to 3 * n do
    N.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
  done;
  net

let test_healthy_network_stays_ok () =
  let net = build ~seed:3 30 in
  let mon = Monitor.create ~thresholds:lax net in
  for i = 1 to 3 do
    let s = Monitor.tick mon ~time:(float_of_int i *. 100.) in
    Alcotest.(check string) "overall ok"
      (Monitor.level_label Monitor.Ok)
      (Monitor.level_label s.Monitor.overall)
  done;
  Alcotest.(check int) "three ticks" 3 (Monitor.tick_count mon);
  Alcotest.(check int) "no transitions" 0 (List.length (Monitor.events mon));
  let s = Option.get (Monitor.latest mon) in
  Alcotest.(check int) "sampled population" 30 s.Monitor.nodes;
  Alcotest.(check int) "sampled height" (Baton.Check.height net)
    s.Monitor.height;
  Alcotest.(check bool) "load observed" true (s.Monitor.skew >= 1.);
  Alcotest.(check int) "gauge fed every tick" 3
    (Gauge.count (Monitor.load_gauge mon))

(* A failing threshold reports Degraded first and escalates to
   Violated only after [persist] consecutive failing samples. *)
let test_persistent_failure_escalates () =
  let net = build ~seed:3 30 in
  (* Skew of any loaded network is >= 1, so this threshold always fails. *)
  let mon =
    Monitor.create
      ~thresholds:{ lax with max_skew = 0.5; persist = 3 }
      net
  in
  let levels =
    List.map
      (fun i ->
        let s = Monitor.tick mon ~time:(float_of_int i) in
        List.assoc Monitor.c_load s.Monitor.levels)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "degraded, degraded, violated"
    [ "degraded"; "degraded"; "violated" ]
    (List.map Monitor.level_label levels);
  Alcotest.(check string) "current load status" "violated"
    (Monitor.level_label (Monitor.current mon Monitor.c_load));
  Alcotest.(check string) "overall mirrors the worst" "violated"
    (Monitor.level_label (Monitor.current mon Monitor.c_overall));
  (* Exactly two transitions per stream: ok->degraded, degraded->violated. *)
  let of_comp c =
    List.filter
      (fun (e : Monitor.event) -> String.equal e.Monitor.component c)
      (Monitor.events mon)
  in
  Alcotest.(check int) "load transitions" 2
    (List.length (of_comp Monitor.c_load));
  Alcotest.(check int) "overall transitions" 2
    (List.length (of_comp Monitor.c_overall));
  match of_comp Monitor.c_load with
  | [ e1; e2 ] ->
    Alcotest.(check string) "first detail names the skew" "skew"
      (String.sub e1.Monitor.detail 0 4);
    Alcotest.(check bool) "escalation ordering" true
      (Monitor.level_rank e2.Monitor.after
      > Monitor.level_rank e1.Monitor.after)
  | _ -> Alcotest.fail "expected two load events"

(* A transient failure recovers: degraded -> ok without ever touching
   violated. Driven through the cache-staleness component, whose
   per-interval rate we can pulse deterministically. *)
let test_transient_failure_recovers () =
  let net = build ~seed:3 30 in
  let mon =
    Monitor.create ~thresholds:{ lax with max_stale_rate = 0.; persist = 3 } net
  in
  let m = Net.metrics net in
  let s1 = Monitor.tick mon ~time:100. in
  Alcotest.(check string) "baseline ok" "ok"
    (Monitor.level_label s1.Monitor.overall);
  (* One stale probe lands in the next interval... *)
  Metrics.event m Baton.Msg.ev_cache_stale;
  let s2 = Monitor.tick mon ~time:200. in
  Alcotest.(check bool) "stale rate observed" true (s2.Monitor.stale_rate > 0.);
  Alcotest.(check string) "one bad interval degrades" "degraded"
    (Monitor.level_label (List.assoc Monitor.c_cache s2.Monitor.levels));
  (* ...and the following interval is quiet again. *)
  let s3 = Monitor.tick mon ~time:300. in
  Alcotest.(check string) "recovers immediately" "ok"
    (Monitor.level_label s3.Monitor.overall);
  let transitions =
    List.map
      (fun (e : Monitor.event) ->
        ( e.Monitor.component,
          Monitor.level_label e.Monitor.before,
          Monitor.level_label e.Monitor.after ))
      (Monitor.events mon)
  in
  Alcotest.(check (list (triple string string string)))
    "degraded -> ok, never violated"
    [
      (Monitor.c_cache, "ok", "degraded");
      (Monitor.c_overall, "ok", "degraded");
      (Monitor.c_cache, "degraded", "ok");
      (Monitor.c_overall, "degraded", "ok");
    ]
    transitions

(* Load skew under churn: departed peers keep their historical message
   counts in [Metrics.per_node], but present imbalance is a property of
   the peers still in the overlay — the monitor must filter. *)
let test_skew_ignores_departed_peers () =
  let net = build ~seed:9 24 in
  let mon = Monitor.create ~thresholds:lax net in
  let s = Monitor.tick mon ~time:1. in
  Alcotest.(check int) "pre-churn population" 24 s.Monitor.nodes;
  let g = Option.get (Gauge.latest (Monitor.load_gauge mon)) in
  Alcotest.(check int) "gauge width = live peers" 24 g.Gauge.nodes;
  for _ = 1 to 4 do
    N.leave net (Net.random_peer net).Baton.Node.id
  done;
  let s = Monitor.tick mon ~time:2. in
  Alcotest.(check int) "post-churn population" 20 s.Monitor.nodes;
  let g = Option.get (Gauge.latest (Monitor.load_gauge mon)) in
  Alcotest.(check int) "departed peers dropped from the gauge" 20
    g.Gauge.nodes;
  (* The unfiltered metric still remembers everyone who ever served. *)
  Alcotest.(check bool) "per_node keeps history" true
    (List.length (Metrics.per_node (Net.metrics net)) > Net.size net)

let test_ring_bounds_samples () =
  let net = build ~seed:3 12 in
  let mon = Monitor.create ~capacity:4 ~thresholds:lax net in
  for i = 1 to 10 do
    ignore (Monitor.tick mon ~time:(float_of_int i))
  done;
  Alcotest.(check int) "count sees everything" 10 (Monitor.tick_count mon);
  let kept = Monitor.samples mon in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length kept);
  Alcotest.(check (list (float 0.)))
    "oldest evicted first" [ 7.; 8.; 9.; 10. ]
    (List.map (fun s -> s.Monitor.s_time) kept);
  Alcotest.(check (float 0.)) "latest is the newest tick" 10.
    (Option.get (Monitor.latest mon)).Monitor.s_time

let health_doc ~seed =
  let net = build ~seed 30 in
  let mon = Monitor.create ~thresholds:lax net in
  for i = 1 to 5 do
    ignore (Monitor.tick mon ~time:(float_of_int i *. 50.))
  done;
  Json.to_string (Monitor.json mon)

let test_json_shape_and_determinism () =
  let doc = health_doc ~seed:3 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re doc 0);
           true
         with Not_found -> false))
    [
      "\"samples\""; "\"events\""; "\"load\""; "\"summary\""; "\"ticks\":5";
      "\"final\":\"ok\""; "\"overall\""; "\"skew\""; "\"stale_rate\"";
    ];
  Alcotest.(check string) "byte-identical across same-seed monitors" doc
    (health_doc ~seed:3)

let test_create_validates () =
  let net = N.build ~seed:3 4 in
  Alcotest.check_raises "capacity" (Invalid_argument "Monitor.create: capacity < 1")
    (fun () -> ignore (Monitor.create ~capacity:0 net));
  Alcotest.check_raises "persist" (Invalid_argument "Monitor.create: persist < 1")
    (fun () ->
      ignore
        (Monitor.create
           ~thresholds:{ Monitor.default_thresholds with persist = 0 }
           net))

let suite =
  [
    Alcotest.test_case "healthy network stays ok" `Quick
      test_healthy_network_stays_ok;
    Alcotest.test_case "persistent failure escalates" `Quick
      test_persistent_failure_escalates;
    Alcotest.test_case "transient failure recovers" `Quick
      test_transient_failure_recovers;
    Alcotest.test_case "skew ignores departed peers" `Quick
      test_skew_ignores_departed_peers;
    Alcotest.test_case "sample ring bounded" `Quick test_ring_bounds_samples;
    Alcotest.test_case "json shape + determinism" `Quick
      test_json_shape_and_determinism;
    Alcotest.test_case "create validates" `Quick test_create_validates;
  ]
