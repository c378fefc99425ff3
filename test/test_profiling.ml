(* Self-profiling layer: the profiler's region accounting, the
   time-series ring, the JSON parser behind bench-diff, the
   probes-on/off neutrality guard and the regression-gate verdicts. *)

module Profile = Baton_obs.Profile
module Series = Baton_obs.Series
module Json = Baton_obs.Json
module Engine = Baton_sim.Engine
module Driver = Baton_runtime.Driver
module Bench_diff = Baton_runtime.Bench_diff

(* --- Profile ------------------------------------------------------- *)

(* Burn [ms] of wall time on the spot (sleeping could yield the CPU,
   which is fine too, but spinning keeps the test short and exact). *)
let spin ms =
  let until = Unix.gettimeofday () +. (ms /. 1000.) in
  while Unix.gettimeofday () < until do
    ()
  done

let sum_rows p =
  List.fold_left (fun acc (_, _, self) -> acc +. self) 0. (Profile.subsystems p)

let test_profile_regions () =
  let p = Profile.create () in
  for _ = 1 to 5 do
    Profile.span p "a" (fun () -> ())
  done;
  Profile.span p "b" (fun () -> ());
  Alcotest.(check int) "five a calls" 5 (Profile.calls p "a");
  Alcotest.(check int) "one b call" 1 (Profile.calls p "b");
  Alcotest.(check int) "untouched row" 0 (Profile.calls p "c");
  Alcotest.(check (list string))
    "subsystems sorted, loop included" [ "a"; "b"; Profile.s_loop ]
    (List.map (fun (name, _, _) -> name) (Profile.subsystems p));
  Alcotest.(check bool) "self time non-negative" true
    (Profile.self_ms p "a" >= 0.)

(* Self time: a parent is billed its duration minus its children's, a
   leaf delivery bills its parent without a frame, and the loop row
   takes the rest — so the rows add up to the elapsed wall. *)
let test_profile_spans_tile_the_wall () =
  let p = Profile.create () in
  let bus = Profile.bus_probe p in
  spin 1.;
  Profile.span p "outer" (fun () ->
      spin 1.;
      Profile.span p "inner" (fun () -> spin 4.);
      bus.Baton_sim.Bus.before ();
      spin 2.;
      bus.Baton_sim.Bus.after ();
      Profile.span p "inner" (fun () -> spin 4.));
  Profile.stop p;
  let self = Profile.self_ms p in
  Alcotest.(check int) "inner calls" 2 (Profile.calls p "inner");
  Alcotest.(check int) "one delivery" 1 (Profile.calls p Profile.s_delivery);
  (* Spins end on the first clock reading past their deadline; the
     0.05 ms slack absorbs the clock's rounding at epoch magnitudes. *)
  let at_least ms row = self row >= ms -. 0.05 in
  Alcotest.(check bool) "inner billed its own spin" true (at_least 8. "inner");
  Alcotest.(check bool) "delivery billed its own spin" true
    (at_least 2. Profile.s_delivery);
  Alcotest.(check bool) "outer excludes its children" true
    (at_least 1. "outer" && self "outer" < self "inner");
  Alcotest.(check bool) "loop holds the wall outside spans" true
    (at_least 1. Profile.s_loop && self Profile.s_loop < self "inner");
  Alcotest.(check (float 1e-6)) "rows add up to the elapsed wall"
    (Profile.elapsed_ms p) (sum_rows p)

let test_profile_leave_unopened_rejected () =
  let p = Profile.create () in
  let unbalanced = Invalid_argument "Profile.leave: no open span" in
  Alcotest.check_raises "leave without enter" unbalanced (fun () ->
      Profile.leave p);
  Profile.enter p "a";
  Profile.leave p;
  Alcotest.check_raises "second leave" unbalanced (fun () -> Profile.leave p);
  Alcotest.(check int) "the balanced pair counted" 1 (Profile.calls p "a")

let test_profile_span_reraises () =
  let p = Profile.create () in
  Alcotest.check_raises "exception passes through" (Failure "boom")
    (fun () -> Profile.span p "a" (fun () -> failwith "boom"));
  Alcotest.(check int) "failed call still counted" 1 (Profile.calls p "a");
  (* The span closed despite the exception: the stack is empty again. *)
  Alcotest.check_raises "nothing left open"
    (Invalid_argument "Profile.leave: no open span") (fun () ->
      Profile.leave p);
  Profile.span p "a" (fun () -> ());
  Alcotest.(check int) "row reusable" 2 (Profile.calls p "a");
  Profile.stop p;
  Alcotest.(check (float 1e-6)) "still tiles the wall" (Profile.elapsed_ms p)
    (sum_rows p)

let test_profile_json_shape () =
  let p = Profile.create () in
  Profile.span p Profile.s_dispatch (fun () -> ());
  Profile.span p Profile.s_dispatch (fun () -> ());
  Profile.stop p;
  let doc = Profile.json p in
  let get k = Option.get (Json.member k doc) in
  (match get "events" with
  | Json.Int 2 -> ()
  | other -> Alcotest.failf "events: %s" (Json.to_string other));
  (match get "gc" with
  | Json.Obj fields ->
    List.iter
      (fun k ->
        Alcotest.(check bool) ("gc." ^ k) true (List.mem_assoc k fields))
      [ "minor_collections"; "major_collections"; "minor_words" ]
  | other -> Alcotest.failf "gc: %s" (Json.to_string other));
  List.iter
    (fun name ->
      match Json.member name (get "subsystems") with
      | Some (Json.Obj [ ("calls", Json.Int _); ("self_ms", Json.Float _) ]) -> ()
      | _ -> Alcotest.failf "subsystems.%s missing or misshapen" name)
    [ Profile.s_dispatch; Profile.s_loop ];
  Alcotest.(check bool) "elapsed frozen by stop" true
    (Profile.elapsed_ms p >= 0.);
  Alcotest.(check bool) "table mentions dispatch" true
    (let table = Profile.table p in
     let re = Str.regexp_string "engine.dispatch" in
     match Str.search_forward re table 0 with
     | (_ : int) -> true
     | exception Not_found -> false)

(* --- Series -------------------------------------------------------- *)

let test_series_ring_bounds () =
  let s = Series.create ~capacity:4 () in
  for i = 1 to 10 do
    Series.record s ~time:(float_of_int i) [ ("x", float_of_int (i * i)) ]
  done;
  Alcotest.(check int) "recorded counts everything" 10 (Series.recorded s);
  Alcotest.(check int) "retained bounded by capacity" 4 (Series.retained s);
  Alcotest.(check int) "dropped is the difference" 6 (Series.dropped s);
  let times = List.map (fun smp -> smp.Series.time) (Series.samples s) in
  Alcotest.(check (list (float 0.))) "oldest evicted first, order kept"
    [ 7.; 8.; 9.; 10. ] times;
  Alcotest.(check (float 0.)) "latest survives" 10.
    (Option.get (Series.latest s)).Series.time

let test_series_jsonl () =
  let s = Series.create () in
  Series.record s ~time:1000. [ ("completed", 12.); ("messages", 340.) ];
  Series.record s ~time:2000. [ ("completed", 30.); ("messages", 700.) ];
  let lines = String.split_on_char '\n' (String.trim (Series.jsonl s)) in
  Alcotest.(check int) "one line per sample" 2 (List.length lines);
  Alcotest.(check string) "deterministic sample line"
    {|{"completed":12.0,"messages":340.0,"t":1000.0}|} (List.nth lines 0);
  (* json_fields splices into a parent object. *)
  let doc = Json.Obj (Series.json_fields s) in
  match Json.member "samples" doc with
  | Some (Json.List [ _; _ ]) -> ()
  | _ -> Alcotest.fail "json_fields.samples should list both samples"

(* --- Json.parse (the parser behind bench-diff) --------------------- *)

let test_json_parse_roundtrip () =
  List.iter
    (fun doc ->
      let text = Json.to_string doc in
      match Json.parse text with
      | Ok parsed ->
        Alcotest.(check string) ("roundtrip " ^ text) text
          (Json.to_string parsed)
      | Error msg -> Alcotest.failf "parse %s: %s" text msg)
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "a \"quoted\"\nline";
      Json.List [ Json.Int 1; Json.Null; Json.Obj [] ];
      Json.Obj
        [
          ("b", Json.Float 3.25);
          ("a", Json.List [ Json.String "x" ]);
          ("c", Json.Obj [ ("nested", Json.Bool false) ]);
        ];
    ];
  (* Pretty output parses back to the same tree as compact output. *)
  let doc =
    Json.Obj [ ("runs", Json.List [ Json.Obj [ ("messages", Json.Int 7) ] ]) ]
  in
  match Json.parse (Json.to_pretty_string doc) with
  | Ok parsed ->
    Alcotest.(check string) "pretty parses equal" (Json.to_string doc)
      (Json.to_string parsed)
  | Error msg -> Alcotest.failf "pretty parse: %s" msg

let test_json_parse_rejects_garbage () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "nul"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

(* --- Neutrality guard ---------------------------------------------- *)

(* The acceptance guard: profiling, time-series sampling and monitoring
   observe the machine, never the simulated world — the same seed with
   every probe on and every probe off must count identical messages,
   complete the same ops at the same virtual instants and produce
   byte-identical latency digests and oracle verdicts. *)
let test_probes_are_metrics_neutral () =
  let cfg ~probes =
    Driver.config ~seed:99 ~keys_per_node:3 ~clients:8 ~ops:120 ~n:60
      ~monitor_every_ms:(if probes then 250. else 0.)
      ~series_every_ms:(if probes then 200. else 0.)
      ~profile:probes ~oracle:true ~mix:Driver.churn_heavy ()
  in
  let off = Driver.run (cfg ~probes:false) in
  let on = Driver.run (cfg ~probes:true) in
  Alcotest.(check int) "messages unchanged" off.Driver.messages
    on.Driver.messages;
  Alcotest.(check int) "cache messages unchanged" off.Driver.cache_messages
    on.Driver.cache_messages;
  Alcotest.(check int) "retries unchanged" off.Driver.retries
    on.Driver.retries;
  Alcotest.(check (pair int int)) "same completions and failures"
    (off.Driver.completed, off.Driver.failed)
    (on.Driver.completed, on.Driver.failed);
  Alcotest.(check (float 0.)) "same virtual duration" off.Driver.duration_ms
    on.Driver.duration_ms;
  let digests r =
    Json.to_string
      (Json.Obj
         (List.map
            (fun (k, d) -> (k, Baton_obs.Timing.json d))
            r.Driver.latencies))
  in
  Alcotest.(check string) "latency digests byte-identical" (digests off)
    (digests on);
  let verdicts r =
    match r.Driver.oracle with
    | Some o -> Json.to_string (Baton_obs.Oracle.json o)
    | None -> Alcotest.fail "oracle missing"
  in
  Alcotest.(check string) "oracle verdicts byte-identical" (verdicts off)
    (verdicts on);
  (* And the probed run actually measured something. *)
  Alcotest.(check bool) "profiled run saw events" true
    (on.Driver.events_per_s > 0.);
  Alcotest.(check bool) "series sampled" true
    (match on.Driver.series with
    | Some s -> Series.recorded s > 0
    | None -> false);
  Alcotest.(check bool) "unprofiled report stays null" true
    (off.Driver.profile_json = Json.Null && off.Driver.series = None);
  (* The profile's rows tile the measured wall, and each observer row
     counts one call per observation. *)
  let prof = on.Driver.profile_json in
  let int_at path doc =
    match List.fold_left (fun d k -> Option.bind d (Json.member k)) (Some doc) path with
    | Some (Json.Int i) -> i
    | _ -> Alcotest.failf "no int at %s" (String.concat "." path)
  in
  let rows =
    match Json.member "subsystems" prof with
    | Some (Json.Obj rows) -> rows
    | _ -> Alcotest.fail "profile.subsystems missing"
  in
  let self_sum =
    List.fold_left
      (fun acc (name, row) ->
        match Json.member "self_ms" row with
        | Some (Json.Float ms) -> acc +. ms
        | _ -> Alcotest.failf "%s has no self_ms" name)
      0. rows
  in
  let wall = on.Driver.wall_ms in
  Alcotest.(check bool)
    (Printf.sprintf "rows sum %.3f ms to the wall %.3f ms" self_sum wall)
    true
    (wall > 0. && Float.abs (self_sum -. wall) <= 0.01 *. wall);
  let calls name = int_at [ "subsystems"; name; "calls" ] prof in
  Alcotest.(check int) "dispatch calls are the events"
    (int_at [ "events" ] prof) (calls Profile.s_dispatch);
  Alcotest.(check int) "one monitor row call per tick"
    (int_at [ "summary"; "ticks" ] on.Driver.health)
    (calls Profile.s_monitor);
  Alcotest.(check int) "one series row call per sample"
    (Series.recorded (Option.get on.Driver.series))
    (calls Profile.s_series);
  Alcotest.(check int) "one oracle row call per verdict"
    (Baton_obs.Oracle.checked (Option.get on.Driver.oracle))
    (calls Profile.s_oracle)

(* The time series itself is deterministic: same seed, same samples,
   byte for byte. *)
let test_series_deterministic () =
  let run () =
    let cfg =
      Driver.config ~seed:7 ~keys_per_node:3 ~clients:6 ~ops:60 ~n:40
        ~series_every_ms:150. ~mix:Driver.read_heavy ()
    in
    Driver.timeseries_jsonl [ ("baton", [ Driver.run cfg ]) ]
  in
  let a = run () in
  Alcotest.(check bool) "non-empty artifact" true (String.length a > 0);
  Alcotest.(check string) "same seed, byte-identical series" a (run ())

(* --- Bench_diff ---------------------------------------------------- *)

let parse_exn text =
  match Json.parse text with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "parse: %s" msg

(* Replace the value at a leaf field everywhere it appears. *)
let rec rewrite key value = function
  | Json.Obj fields ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           if String.equal k key then (k, value) else (k, rewrite key value v))
         fields)
  | Json.List items -> Json.List (List.map (rewrite key value) items)
  | scalar -> scalar

let bench_doc ~profile =
  let cfg =
    Driver.config ~seed:11 ~keys_per_node:2 ~clients:4 ~ops:40 ~n:20
      ~monitor_every_ms:500. ~series_every_ms:250. ~profile
      ~mix:Driver.read_heavy ()
  in
  parse_exn
    (Json.to_pretty_string (Driver.bench_json [ ("baton", [ Driver.run cfg ]) ]))

let test_bench_diff_pass () =
  let old_doc = bench_doc ~profile:true in
  let new_doc = bench_doc ~profile:true in
  match Bench_diff.compare ~max_regress_pct:99. ~old_doc ~new_doc with
  | Bench_diff.Pass { details } ->
    Alcotest.(check int) "one run, one throughput note" 1
      (List.length details);
    Alcotest.(check int) "exit 0" 0
      (Bench_diff.exit_code (Bench_diff.Pass { details }))
  | v -> Alcotest.failf "expected pass: %s" (Bench_diff.render v)

let test_bench_diff_simulated_mismatch () =
  let old_doc = bench_doc ~profile:true in
  let new_doc = rewrite "messages" (Json.Int 424242) old_doc in
  match Bench_diff.compare ~max_regress_pct:99. ~old_doc ~new_doc with
  | Bench_diff.Simulated_mismatch lines ->
    Alcotest.(check bool) "path names the drifted field" true
      (List.exists
         (fun l ->
           let re = Str.regexp_string "messages" in
           match Str.search_forward re l 0 with
           | (_ : int) -> true
           | exception Not_found -> false)
         lines);
    Alcotest.(check int) "exit 1" 1
      (Bench_diff.exit_code (Bench_diff.Simulated_mismatch lines))
  | v -> Alcotest.failf "expected simulated mismatch: %s" (Bench_diff.render v)

let test_bench_diff_ignores_profile_drift () =
  let old_doc = bench_doc ~profile:true in
  (* Wall-clock numbers always drift between runs; rewriting the
     throughput field (inside "profile") must not trip the exact
     comparison — only the tolerance check. *)
  let new_doc = rewrite "events_per_s" (Json.Float 1e9) old_doc in
  match Bench_diff.compare ~max_regress_pct:10. ~old_doc ~new_doc with
  | Bench_diff.Pass _ -> ()
  | v -> Alcotest.failf "expected pass: %s" (Bench_diff.render v)

let test_bench_diff_throughput_regress () =
  let old_doc = bench_doc ~profile:true in
  let new_doc = rewrite "events_per_s" (Json.Float 0.001) old_doc in
  match Bench_diff.compare ~max_regress_pct:50. ~old_doc ~new_doc with
  | Bench_diff.Throughput_regress lines ->
    Alcotest.(check int) "one regressed run" 1 (List.length lines);
    Alcotest.(check int) "exit 2" 2
      (Bench_diff.exit_code (Bench_diff.Throughput_regress lines))
  | v -> Alcotest.failf "expected throughput regress: %s" (Bench_diff.render v)

let test_bench_diff_schema_mismatch () =
  let old_doc = bench_doc ~profile:false in
  let new_doc = rewrite "schema" (Json.String "baton-bench-runtime-v4") old_doc in
  match Bench_diff.compare ~max_regress_pct:50. ~old_doc ~new_doc with
  | Bench_diff.Schema_mismatch { old_schema; new_schema } ->
    Alcotest.(check string) "old schema" Baton_runtime.Report_check.runtime_schema old_schema;
    Alcotest.(check string) "new schema" "baton-bench-runtime-v4" new_schema
  | v -> Alcotest.failf "expected schema mismatch: %s" (Bench_diff.render v)

(* A profile row whose self time moved is named first, in the pass
   notes and in a regression's line alike. *)
let test_bench_diff_names_the_moved_row () =
  let old_doc = bench_doc ~profile:true in
  let new_doc =
    let rec bump_tick = function
      | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) ->
               match (k, v) with
               | "monitor.tick", Json.Obj row ->
                 ( k,
                   Json.Obj
                     (List.map
                        (function
                          | "self_ms", Json.Float f -> ("self_ms", Json.Float (f +. 50.))
                          | field -> field)
                        row) )
               | _ -> (k, bump_tick v))
             fields)
      | Json.List items -> Json.List (List.map bump_tick items)
      | scalar -> scalar
    in
    bump_tick old_doc
  in
  let first_row note =
    match String.split_on_char '\n' note with
    | _ :: row :: _ -> String.trim row
    | _ -> Alcotest.failf "no profile rows in %S" note
  in
  let named_first note =
    let row = first_row note in
    Alcotest.(check string) "moved row first" "monitor.tick"
      (String.sub row 0 (String.index row ' '))
  in
  (match Bench_diff.compare ~max_regress_pct:99. ~old_doc ~new_doc with
  | Bench_diff.Pass { details = [ note ] } -> named_first note
  | v -> Alcotest.failf "expected one pass note: %s" (Bench_diff.render v));
  match
    Bench_diff.compare ~max_regress_pct:50. ~old_doc
      ~new_doc:(rewrite "events_per_s" (Json.Float 0.001) new_doc)
  with
  | Bench_diff.Throughput_regress [ line ] -> named_first line
  | v -> Alcotest.failf "expected one regression: %s" (Bench_diff.render v)

(* Unprofiled documents still gate the simulated sections; the
   throughput check reports itself skipped instead of failing. *)
let test_bench_diff_unprofiled_docs () =
  let old_doc = bench_doc ~profile:false in
  let new_doc = bench_doc ~profile:false in
  match Bench_diff.compare ~max_regress_pct:50. ~old_doc ~new_doc with
  | Bench_diff.Pass { details } ->
    Alcotest.(check bool) "notes the skipped check" true
      (List.exists
         (fun l ->
           let re = Str.regexp_string "skipped" in
           match Str.search_forward re l 0 with
           | (_ : int) -> true
           | exception Not_found -> false)
         details)
  | v -> Alcotest.failf "expected pass: %s" (Bench_diff.render v)

(* --- Engine dispatch probe ---------------------------------------- *)

let test_engine_probe_counts_events () =
  let e = Engine.create () in
  let before = ref 0 and after = ref 0 in
  Engine.set_probe e
    (Some
       {
         Engine.before = (fun () -> incr before);
         after = (fun () -> incr after);
       });
  for i = 1 to 5 do
    Engine.schedule e ~delay:(float_of_int i) (fun () -> ())
  done;
  (* A raising event must still fire the after probe. *)
  Engine.schedule e ~delay:10. (fun () -> failwith "boom");
  (try Engine.run e with Failure _ -> ());
  Engine.run e;
  Alcotest.(check int) "before per event" 6 !before;
  Alcotest.(check int) "after matches, exception included" 6 !after;
  Engine.set_probe e None;
  Engine.schedule e ~delay:1. (fun () -> ());
  Engine.run e;
  Alcotest.(check int) "detached probe sees nothing" 6 !before

let suite =
  [
    Alcotest.test_case "profile region accounting" `Quick test_profile_regions;
    Alcotest.test_case "profile spans tile the wall" `Quick
      test_profile_spans_tile_the_wall;
    Alcotest.test_case "profile rejects unbalanced leave" `Quick
      test_profile_leave_unopened_rejected;
    Alcotest.test_case "profile span survives exceptions" `Quick
      test_profile_span_reraises;
    Alcotest.test_case "profile json shape" `Quick test_profile_json_shape;
    Alcotest.test_case "series ring bounds + eviction" `Quick
      test_series_ring_bounds;
    Alcotest.test_case "series jsonl export" `Quick test_series_jsonl;
    Alcotest.test_case "json parse roundtrip" `Quick test_json_parse_roundtrip;
    Alcotest.test_case "json parse rejects garbage" `Quick
      test_json_parse_rejects_garbage;
    Alcotest.test_case "probes are metrics-neutral" `Quick
      test_probes_are_metrics_neutral;
    Alcotest.test_case "time series deterministic" `Quick
      test_series_deterministic;
    Alcotest.test_case "bench-diff pass" `Quick test_bench_diff_pass;
    Alcotest.test_case "bench-diff simulated mismatch" `Quick
      test_bench_diff_simulated_mismatch;
    Alcotest.test_case "bench-diff ignores profile drift" `Quick
      test_bench_diff_ignores_profile_drift;
    Alcotest.test_case "bench-diff throughput regress" `Quick
      test_bench_diff_throughput_regress;
    Alcotest.test_case "bench-diff schema mismatch" `Quick
      test_bench_diff_schema_mismatch;
    Alcotest.test_case "bench-diff names the moved profile row" `Quick
      test_bench_diff_names_the_moved_row;
    Alcotest.test_case "bench-diff unprofiled docs" `Quick
      test_bench_diff_unprofiled_docs;
    Alcotest.test_case "engine probe counts events" `Quick
      test_engine_probe_counts_events;
  ]
