(* The report contract: the committed documents keep it, the configs CI
   runs keep it plus what each job expects of them, every small config
   keeps it, and each rule catches the one edit that breaks it. *)

module Json = Baton_obs.Json
module Driver = Baton_runtime.Driver
module Report_check = Baton_runtime.Report_check
module Exp_cache = Baton_experiments.Exp_cache
module Partition = Baton_sim.Partition
module Overlay = P2p_overlay.Overlay

(* --- Reading documents ---------------------------------------------- *)

let parse what text =
  match Json.parse text with
  | Ok doc -> doc
  | Error e -> Alcotest.failf "%s: %s" what e

let read path = parse path (In_channel.with_open_text path In_channel.input_all)

(* A document as its writer would leave it on disk. *)
let written doc = parse "written document" (Json.to_pretty_string doc)

let keeps_contract what doc =
  match Report_check.check doc with
  | [] -> ()
  | breaches ->
    Alcotest.failf "%s breaks the report contract:\n%s" what
      (String.concat "\n" breaches)

let ( |. ) j k =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.failf "missing field %s" k

let num = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> Alcotest.fail "not a number"

let items = function Json.List l -> l | _ -> Alcotest.fail "not a list"
let str = function Json.String s -> s | _ -> Alcotest.fail "not a string"
let sections doc = items (doc |. "overlays")
let runs j = items (j |. "runs")
let where run = str (run |. "mix")

let expect what cond run =
  if not cond then Alcotest.failf "%s: %s" (where run) what

(* --- bench-run's documents, built in-process ------------------------- *)

let schedule = function
  | "" -> []
  | spec -> (
    match Partition.parse spec with
    | Ok s -> s
    | Error e -> Alcotest.failf "bad fault schedule %S: %s" spec e)

(* [bench-run]'s document at its command-line defaults, with its flag
   logic: faults force the oracle on, and the monitor and heat run only
   on baton. *)
let bench_run ?(overlays = [ "baton" ]) ?(mixes = Driver.mixes)
    ?(monitor_every = 2000.) ?(profile = true) ?(heat = true)
    ?(faults = "") ?(oracle = false) ~n ~ops () =
  let fault_schedule = schedule faults in
  let oracle = oracle || fault_schedule <> [] in
  Driver.bench_json
    (List.map
       (fun overlay ->
         let baton = String.equal overlay "baton" in
         ( overlay,
           List.map
             (fun mix ->
               Driver.run
                 (Driver.config ~overlay ~keys_per_node:20 ~ops
                    ~monitor_every_ms:(if baton then monitor_every else 0.)
                    ~series_every_ms:1000. ~profile ~heat:(baton && heat)
                    ~fault_schedule ~oracle ~n ~mix ()))
             mixes ))
       overlays)
  |> written

(* What CI's schema job held both the smoke document and the committed
   one to, beyond the contract: the three default mixes on baton, no
   fault schedule and no oracle, work done, every monitor tick
   retained, and demand heat that saw the workload. *)
let smoke_expectations doc =
  match sections doc with
  | [ section ] ->
    Alcotest.(check string) "baton only" "baton" (str (section |. "overlay"));
    Alcotest.(check (list string))
      "default mixes"
      [ "read-heavy"; "range-heavy"; "churn-heavy" ]
      (List.map where (runs section));
    List.iter
      (fun run ->
        let faults = run |. "faults" in
        expect "fault schedule" (faults |. "schedule" = Json.Null) run;
        expect "fault scenario" (items (faults |. "scenario") = []) run;
        expect "oracle" (run |. "oracle" = Json.Null) run;
        expect "throughput" (num (run |. "throughput_ops_per_s") > 0.) run;
        (match run |. "health" with
        | Json.Null -> ()
        | health ->
          expect "a tick per sample"
            (num (health |. "summary" |. "ticks")
            = float_of_int (List.length (items (health |. "samples"))))
            run);
        let load = run |. "load" in
        let classes = load |. "classes" in
        expect "serve and route heat"
          (num (classes |. "serve") > 0. && num (classes |. "route") > 0.)
          run;
        expect "accesses" (num (load |. "hot_keys" |. "accesses") > 0.) run;
        expect "warm heatmap"
          (List.exists
             (fun c -> num c > 0.)
             (items (load |. "heatmap" |. "counts")))
          run)
      (runs section)
  | _ -> Alcotest.fail "expected one overlay section"

(* --- The committed documents ---------------------------------------- *)

let test_committed_runtime () =
  let doc = read "../BENCH_runtime.json" in
  keeps_contract "BENCH_runtime.json" doc;
  smoke_expectations doc;
  List.iter
    (fun run ->
      expect "health" (run |. "health" <> Json.Null) run;
      expect "time series"
        (items (run |. "timeseries" |. "samples") <> [])
        run;
      expect "profile" (run |. "profile" <> Json.Null) run)
    (List.concat_map runs (sections doc))

let test_committed_scale () =
  let doc = read "../BENCH_scale.json" in
  keeps_contract "BENCH_scale.json" doc;
  Alcotest.(check (list string))
    "sizes"
    [ "n=1000"; "n=10000"; "n=100000" ]
    (List.map where (runs doc));
  List.iter
    (fun run ->
      expect "completed" (num (run |. "completed") > 0.) run;
      expect "failed" (num (run |. "failed") = 0.) run)
    (runs doc)

(* What CI held the committed and the smoke cache documents to beyond
   the contract: the headline claim, that a read-heavy Zipf(0.9)
   workload at zero churn drops total traffic by at least 30%. *)
let cache_expectations doc =
  let head =
    List.filter
      (fun c -> num (c |. "theta") = 0.9 && num (c |. "churn_pct") = 0.)
      (runs doc)
  in
  Alcotest.(check bool) "a theta 0.9, zero-churn cell" true (head <> []);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "reduction %.1f%% >= 30%%" (num (c |. "reduction_pct")))
        true
        (num (c |. "reduction_pct") >= 30.))
    head

let test_committed_cache () =
  let doc = read "../BENCH_cache.json" in
  keeps_contract "BENCH_cache.json" doc;
  cache_expectations doc

(* --- CI's configs ---------------------------------------------------- *)

let test_smoke () =
  let doc = bench_run ~n:200 ~ops:400 ~monitor_every:400. ~profile:false () in
  keeps_contract "smoke" doc;
  smoke_expectations doc;
  Alcotest.(check bool)
    "monitored" true
    (List.exists
       (fun run -> num (run |. "monitor_every_ms") > 0.)
       (List.concat_map runs (sections doc)))

let ci_spec =
  "partition@500+1500:k=2;subtree@1000;gray@300+2000:peers=5,drop=0.3;\
   partition@3000+1000:k=3,oneway"

let test_adversarial () =
  let doc =
    bench_run ~n:500 ~ops:600 ~mixes:[ Driver.adversarial ] ~faults:ci_spec
      ~profile:false ()
  in
  keeps_contract "adversarial" doc;
  match sections doc with
  | [ section ] -> (
    Alcotest.(check string) "baton" "baton" (str (section |. "overlay"));
    match runs section with
    | [ run ] ->
      let faults = run |. "faults" in
      expect "schedule reported" (faults |. "schedule" <> Json.Null) run;
      expect "an episode fired" (items (faults |. "scenario") <> []) run;
      expect "the partition bit"
        (num (faults |. "partition_timeouts") > 0.)
        run;
      expect "operations judged"
        (num (run |. "oracle" |. "checked") > 0.)
        run
    | _ -> Alcotest.fail "expected one run")
  | _ -> Alcotest.fail "expected one overlay section"

let test_overlay_matrix () =
  let doc =
    bench_run ~n:150 ~ops:300 ~overlays:Overlay.names ~oracle:true
      ~profile:false ~monitor_every:0. ~heat:false ()
  in
  keeps_contract "overlay matrix" doc;
  Alcotest.(check (list string))
    "every overlay"
    [ "baton"; "chord"; "multiway"; "skip-graph" ]
    (List.map (fun s -> str (s |. "overlay")) (sections doc));
  List.iter
    (fun section ->
      let overlay = str (section |. "overlay") in
      List.iter
        (fun run ->
          let expect what cond = expect (overlay ^ " " ^ what) cond run in
          expect "messages" (num (run |. "messages") > 0.);
          expect "operations judged" (num (run |. "oracle" |. "checked") > 0.);
          (* Chord has no range queries: those fail honestly. *)
          if overlay <> "chord" then
            expect "no failed op" (num (run |. "failed") = 0.);
          if overlay <> "baton" then begin
            expect "time series" (run |. "timeseries" <> Json.Null);
            expect "queue depth" (num (run |. "queue_depth" |. "max") >= 1.)
          end)
        (runs section))
    (sections doc)

(* The overlay-matrix job's faulted run: every overlay with a crash
   surface under one combined schedule, each section showing that it
   fired. *)
let test_overlay_faults () =
  let doc =
    bench_run ~n:150 ~ops:300 ~overlays:[ "baton"; "skip-graph" ]
      ~mixes:[ Driver.adversarial ]
      ~faults:"partition@500+1200:k=2;subtree@2200;gray@300+2500:peers=4"
      ~oracle:true ~profile:false ~monitor_every:0. ~heat:false ()
  in
  keeps_contract "overlay faults" doc;
  Alcotest.(check (list string))
    "every overlay with a crash surface" [ "baton"; "skip-graph" ]
    (List.map (fun s -> str (s |. "overlay")) (sections doc));
  List.iter
    (fun section ->
      let overlay = str (section |. "overlay") in
      List.iter
        (fun run ->
          let expect what cond = expect (overlay ^ " " ^ what) cond run in
          let faults = run |. "faults" in
          expect "schedule reported" (faults |. "schedule" <> Json.Null);
          expect "an episode fired" (items (faults |. "scenario") <> []);
          expect "the partition bit" (num (faults |. "partition_timeouts") > 0.);
          expect "the crash lost keys"
            (num (run |. "oracle" |. "lost_keys") > 0.);
          expect "operations judged" (num (run |. "oracle" |. "checked") > 0.))
        (runs section))
    (sections doc)

let cache_doc ~seed ~n ~keys_per_node ~ops ~range_span =
  Exp_cache.bench_json ~seed ~n ~keys_per_node ~ops ~range_span
    (Exp_cache.cells ~seed ~n ~keys_per_node ~ops ~range_span ())
  |> written

let test_cache_smoke () =
  let doc =
    cache_doc ~seed:2005 ~n:120 ~keys_per_node:10 ~ops:600
      ~range_span:2_000_000
  in
  keeps_contract "cache smoke" doc;
  cache_expectations doc

let test_cache_rejections () =
  let cells ?(n = 20) ?(keys_per_node = 2) ?(ops = 10) ?(range_span = 100) () =
    ignore
      (Exp_cache.cells ~seed:1 ~n ~keys_per_node ~ops ~range_span ()
        : Exp_cache.cell list)
  in
  let rejects what msg f =
    Alcotest.check_raises what (Invalid_argument ("Exp_cache.cells: " ^ msg)) f
  in
  rejects "no peers" "n < 1" (cells ~n:0);
  rejects "no keys" "keys_per_node < 1" (cells ~keys_per_node:0);
  rejects "negative ops" "ops < 1" (cells ~ops:(-3));
  rejects "negative span" "range_span < 0" (cells ~range_span:(-5))

(* --- Tampering -------------------------------------------------------- *)

(* A path into a document: object keys and list indices, '/'-separated
   (profile rows have dots in their names). *)
let rec at path f j =
  match (path, j) with
  | [], v -> f v
  | k :: rest, Json.Obj fields ->
    if not (List.mem_assoc k fields) then Alcotest.failf "no field %s" k;
    Json.Obj
      (List.map
         (fun (k', v) -> if String.equal k k' then (k', at rest f v) else (k', v))
         fields)
  | i :: rest, Json.List l ->
    let i = int_of_string i in
    Json.List (List.mapi (fun i' v -> if i = i' then at rest f v else v) l)
  | k :: _, _ -> Alcotest.failf "cannot step into %s" k

let edit path f doc = at (String.split_on_char '/' path) f doc
let set v _ = v

let drop k = function
  | Json.Obj fields -> Json.Obj (List.remove_assoc k fields)
  | _ -> Alcotest.fail "drop: not an object"

let add k v = function
  | Json.Obj fields -> Json.Obj ((k, v) :: fields)
  | _ -> Alcotest.fail "add: not an object"

let bump d = function
  | Json.Int i -> Json.Int (i + int_of_float d)
  | Json.Float f -> Json.Float (f +. d)
  | _ -> Alcotest.fail "bump: not a number"

(* One baton run with every section filled: monitor, series, heat,
   profile and oracle on. *)
let full_runtime =
  lazy
    (bench_run ~n:40 ~ops:80 ~mixes:[ Driver.read_heavy ] ~monitor_every:200.
       ~oracle:true ())

let faulted_runtime =
  lazy
    (bench_run ~n:40 ~ops:80 ~mixes:[ Driver.adversarial ]
       ~faults:"gray@0+5000:peers=4" ())

let scale = lazy (written (Driver.scale_json (Driver.run_scale ~ops:40 [ 30 ])))

let cache =
  lazy (cache_doc ~seed:3 ~n:20 ~keys_per_node:2 ~ops:60 ~range_span:2_000_000)

let run0 = "overlays/0/runs/0/"

(* (document, where, the rule's text, the edit that must break it) *)
let tampers =
  let rt = full_runtime and faulted = faulted_runtime in
  let r = "baton/read-heavy" in
  [
    (rt, "document", "unknown schema", edit "schema" (set (Json.String "baton-bench-runtime-v7")));
    (rt, "document", "no schema field", drop "schema");
    (rt, "document", "no overlay sections", edit "overlays" (set (Json.List [])));
    (rt, "document", "overlay section without a name or runs",
     edit "overlays/0" (drop "overlay"));
    (rt, r, "missing field retries", edit "overlays/0/runs/0" (drop "retries"));
    (rt, r, "completed + failed <> ops_issued", edit (run0 ^ "completed") (bump 1.));
    (rt, r, "faults missing field gray_drops", edit (run0 ^ "faults") (drop "gray_drops"));
    (rt, r, "fault activity without a fault schedule",
     edit (run0 ^ "faults/partition_timeouts") (bump 1.));
    (rt, r, "oracle violations", edit (run0 ^ "oracle/violations") (bump 1.));
    (rt, r, "oracle violations <> violation_details + dropped",
     edit (run0 ^ "oracle/violation_details_dropped") (bump 1.));
    (rt, r, "oracle by_op violations",
     edit (run0 ^ "oracle/by_op/exact/violations") (bump 1.));
    (rt, r, "health null while monitor_every_ms > 0", edit (run0 ^ "health") (set Json.Null));
    (rt, r, "health present while monitor_every_ms = 0",
     edit (run0 ^ "monitor_every_ms") (set (Json.Float 0.)));
    (rt, r, "health missing field events", edit (run0 ^ "health") (drop "events"));
    (rt, r, "health carries a load array",
     edit (run0 ^ "health") (add "load" (Json.List [])));
    (rt, r, "health has no samples", edit (run0 ^ "health/samples") (set (Json.List [])));
    (rt, r, "health summary.ticks below its sample count",
     edit (run0 ^ "health/summary/ticks") (set (Json.Int 0)));
    (rt, r, "health sample overall not ok/degraded/violated",
     edit (run0 ^ "health/samples/0/overall") (set (Json.String "fine")));
    (rt, r, "timeseries null while series_every_ms > 0",
     edit (run0 ^ "timeseries") (set Json.Null));
    (rt, r, "timeseries present while series_every_ms = 0",
     edit (run0 ^ "series_every_ms") (set (Json.Float 0.)));
    (rt, r, "timeseries missing field dropped", edit (run0 ^ "timeseries") (drop "dropped"));
    (rt, r, "timeseries has no samples",
     edit (run0 ^ "timeseries/samples") (set (Json.List [])));
    (rt, r, "timeseries recorded <> dropped + samples",
     edit (run0 ^ "timeseries/recorded") (bump 1.));
    (rt, r, "timeseries sample lacks t/completed/messages",
     edit (run0 ^ "timeseries/samples/0") (drop "completed"));
    (rt, r, "timeseries heat_skew without a load section",
     edit (run0 ^ "timeseries/samples/0") (drop "heat_skew"));
    (rt, r, "load missing field peers", edit (run0 ^ "load") (drop "peers"));
    (rt, r, "load classes are not serve/route/maint/aux",
     edit (run0 ^ "load/classes") (add "other" (Json.Int 0)));
    (rt, r, "load hot_keys.topk_share outside [0, 1]",
     edit (run0 ^ "load/hot_keys/topk_share") (set (Json.Float 1.5)));
    (rt, r, "load hot_keys has more than k entries",
     edit (run0 ^ "load/hot_keys/k") (set (Json.Int 0)));
    (rt, r, "load hot_keys entries not sorted by count",
     edit (run0 ^ "load/hot_keys/entries") (fun l -> Json.List (List.rev (items l))));
    (rt, r, "load heatmap.counts length <> buckets",
     edit (run0 ^ "load/heatmap/buckets") (bump 1.));
    (rt, r, "load heatmap holds fewer counts than hot_keys.accesses",
     edit (run0 ^ "load/hot_keys/accesses") (bump 1e6));
    (rt, r, "load skew.ratio negative",
     edit (run0 ^ "load/skew/ratio") (set (Json.Float (-1.))));
    (rt, r, "profile missing field events_per_s", edit (run0 ^ "profile") (drop "events_per_s"));
    (rt, r, "profile wall_ms, events or events_per_s not positive",
     edit (run0 ^ "profile/events") (set (Json.Int 0)));
    (rt, r, "profile lacks the engine.dispatch row",
     edit (run0 ^ "profile/subsystems") (drop "engine.dispatch"));
    (rt, r, "profile row lacks calls/self_ms",
     edit (run0 ^ "profile/subsystems/engine.dispatch") (drop "calls"));
    (rt, r, "profile rows do not sum to wall_ms within 1%",
     edit (run0 ^ "profile/wall_ms") (fun w -> Json.Float (2. *. num w)));
    (rt, r, "profile gc missing field minor_words",
     edit (run0 ^ "profile/gc") (drop "minor_words"));
    (rt, r, "cache missing field hits", edit (run0 ^ "cache") (drop "hits"));
    (rt, r, "cache traffic while route_cache is off", edit (run0 ^ "cache/hits") (bump 1.));
    (rt, r, "latency_ms.exact missing field max_ms",
     edit (run0 ^ "latency_ms/exact") (drop "max_ms"));
    (rt, r, "latency_ms.exact percentiles out of order",
     edit (run0 ^ "latency_ms/exact/p50_ms") (bump 1e6));
    (faulted, "baton/adversarial", "fault activity without a fault schedule",
     edit (run0 ^ "faults/schedule") (set Json.Null));
    (faulted, "baton/adversarial", "oracle violations",
     edit (run0 ^ "oracle/violations") (bump 1.));
    (scale, "document", "no runs", edit "runs" (set (Json.List [])));
    (scale, "n=30", "completed + failed <> ops_issued", edit "runs/0/failed" (bump 1.));
    (scale, "n=30", "mix is not n=<n>", edit "runs/0/n" (bump 1.));
    (scale, "n=30", "scale run unprofiled", edit "runs/0/profile" (set Json.Null));
    (cache, "document", "missing field capacity", drop "capacity");
    (cache, "document", "fewer than 7 cells",
     edit "runs" (function Json.List (_ :: l) -> Json.List l | j -> j));
    (cache, "theta=0.5/churn=0%", "missing field hit_rate", edit "runs/0" (drop "hit_rate"));
    (cache, "theta=0.5/churn=0%", "wrong answers", edit "runs/0/wrong_answers" (bump 1.));
    (cache, "theta=0.5/churn=0%", "stale shortcuts at zero churn",
     edit "runs/0/stale" (bump 1.));
    (cache, "theta=0.5/churn=0%", "partial answers at zero churn",
     edit "runs/0/partial" (bump 1.));
  ]

let test_untampered_documents_pass () =
  List.iter
    (fun (what, doc) -> keeps_contract what (Lazy.force doc))
    [
      ("full runtime", full_runtime); ("faulted runtime", faulted_runtime);
      ("scale", scale); ("cache", cache);
    ]

let test_tamper_table () =
  List.iter
    (fun (doc, where, rule, tamper) ->
      let line = where ^ ": " ^ rule in
      let breaches = Report_check.check (tamper (Lazy.force doc)) in
      let reported =
        List.exists
          (fun b ->
            String.length b >= String.length line
            && String.equal (String.sub b 0 (String.length line)) line)
          breaches
      in
      if not reported then
        Alcotest.failf "edit for %S not reported; breaches:\n%s" line
          (String.concat "\n" breaches))
    tampers

(* --- Every small config keeps the contract ---------------------------- *)

(* The fault schedules CI and the tests already run. *)
let fault_specs =
  [
    ci_spec;
    "partition@500+1500:k=2,oneway;subtree@800:roots=2;\
     gray@300+2000:peers=5,drop=0.3,slow=4";
    "partition@200+400:k=2;gray@100+500:peers=3;subtree@700";
    "subtree@100;gray@0+50:peers=2";
    "gray@5000+100000:peers=20,drop=0.3";
  ]

type small = {
  overlay : string;
  n : int;
  ops : int;
  seed : int;
  mix : Driver.mix;
  arrival : Driver.arrival;
  clients : int;
  monitor : bool;
  series : bool;
  heat : bool;
  profile : bool;
  route_cache : bool;
  oracle : bool;
  faults : string;
}

let print_small c =
  Printf.sprintf
    "%s n=%d ops=%d seed=%d mix=%s %s clients=%d monitor=%b series=%b \
     heat=%b profile=%b route_cache=%b oracle=%b faults=%S"
    c.overlay c.n c.ops c.seed c.mix.Driver.mix_name
    (match c.arrival with
    | Driver.Closed { think_ms } -> Printf.sprintf "closed/%g" think_ms
    | Driver.Open { rate_per_s } -> Printf.sprintf "open/%g" rate_per_s)
    c.clients c.monitor c.series c.heat c.profile c.route_cache c.oracle
    c.faults

let gen_small =
  let open QCheck2.Gen in
  let* overlay = oneofl Overlay.names in
  let baton = String.equal overlay "baton" in
  let* n = int_range 2 60 in
  let* ops = int_range 1 80 in
  let* seed = int_bound 100_000 in
  let* mix = oneofl (Driver.mixes @ [ Driver.adversarial ]) in
  let* arrival =
    oneof
      [
        map (fun think_ms -> Driver.Closed { think_ms }) (oneofl [ 0.; 5. ]);
        map (fun rate_per_s -> Driver.Open { rate_per_s }) (oneofl [ 50.; 400. ]);
      ]
  in
  let* clients = int_range 1 8 in
  let* monitor = bool and* series = bool and* heat = bool in
  let* profile = bool and* route_cache = bool and* oracle = bool in
  let* faults = oneofl ("" :: fault_specs) in
  (* Fault schedules run on the overlays with a crash surface: BATON,
     and the skip graph on churn-free mixes. *)
  let faulted =
    baton || (String.equal overlay "skip-graph" && mix.Driver.churn_w = 0)
  in
  return
    {
      overlay; n; ops; seed; mix; arrival; clients; series; profile; oracle;
      monitor = baton && monitor;
      heat = baton && heat;
      route_cache = baton && route_cache;
      faults = (if faulted then faults else "");
    }

let small_report c =
  let fault_schedule = schedule c.faults in
  Driver.run
    (Driver.config ~overlay:c.overlay ~seed:c.seed ~keys_per_node:3
       ~clients:c.clients ~ops:c.ops ~arrival:c.arrival
       ~route_cache:c.route_cache
       ~monitor_every_ms:(if c.monitor then 150. else 0.)
       ~series_every_ms:(if c.series then 100. else 0.)
       ~profile:c.profile ~heat:c.heat ~fault_schedule
       ~oracle:(c.oracle || fault_schedule <> [])
       ~n:c.n ~mix:c.mix ())

(* Failures of the property below, each shrunk to a fixture: a protocol
   step resumed after a message wait and acted on a peer that had left
   or crashed meanwhile, and an answer came out wrong. *)
let fixtures =
  let base =
    {
      overlay = "baton"; n = 2; ops = 1; seed = 0; mix = Driver.churn_heavy;
      arrival = Driver.Closed { think_ms = 0. }; clients = 1; monitor = false;
      series = false; heat = false; profile = false; route_cache = false;
      oracle = true; faults = "";
    }
  in
  let open_loop = Driver.Open { rate_per_s = 50. } in
  let subtree = "subtree@100;gray@0+50:peers=2" in
  let oneway =
    "partition@500+1500:k=2,oneway;subtree@800:roots=2;\
     gray@300+2000:peers=5,drop=0.3,slow=4"
  in
  [
    ( "a lookup resumes at a peer that left",
      { base with n = 4; ops = 36; arrival = open_loop; clients = 2;
        monitor = true; series = true; heat = true; route_cache = true;
        faults = subtree } );
    ( "a leave merges a crashed replacement",
      { base with n = 8; ops = 27; seed = 48605; clients = 2; monitor = true;
        series = true; faults = ci_spec } );
    ( "a crashed leaver hands its keys over",
      { base with ops = 26; seed = 57873; clients = 2; faults = oneway } );
    ( "a leaver and its replacement crash mid-leave",
      { base with n = 7; ops = 57; seed = 18480; clients = 7; faults = subtree } );
    ( "an insert lands on a crashed owner",
      { base with n = 15; ops = 79; seed = 73801;
        mix = Option.get (Driver.mix_named "range-heavy");
        arrival = open_loop; clients = 5; route_cache = true; faults = oneway } );
    ( "a join splits a crashed acceptor",
      { base with ops = 15; seed = 10771; clients = 2; faults = subtree } );
    ( "a leaf leaves into a crashed parent",
      { base with ops = 19; seed = 14442; arrival = open_loop; clients = 7;
        route_cache = true; faults = subtree } );
    ( "a leave's range merge fails",
      { base with ops = 67; seed = 40980; clients = 3; route_cache = true;
        faults = "partition@200+400:k=2;gray@100+500:peers=3;subtree@700" } );
    ( "a range sweep's start absorbs a leaving leaf",
      { base with ops = 47; seed = 97087; arrival = open_loop; clients = 2;
        faults = "gray@5000+100000:peers=20,drop=0.3" } );
    ( "a range sweep's sender absorbs the peer it hops to",
      { base with n = 56; ops = 73; seed = 75802; clients = 6 } );
    ( "a range sweep waits at a peer that leaves",
      { base with n = 23; ops = 49; seed = 66908; clients = 8;
        route_cache = true } );
    ( "a range sweep's peer gains keys, then a join splits them off",
      { base with n = 3; ops = 23; seed = 73754; arrival = open_loop;
        clients = 5; route_cache = true; faults = ci_spec } );
  ]

let test_fixtures () =
  List.iter
    (fun (what, c) ->
      keeps_contract what
        (written (Driver.bench_json [ (c.overlay, [ small_report c ]) ])))
    fixtures

let runtime_prop =
  QCheck2.Test.make ~name:"every small bench-run document keeps the contract"
    ~count:60 ~long_factor:25 ~print:print_small gen_small (fun c ->
      let doc = written (Driver.bench_json [ (c.overlay, [ small_report c ]) ]) in
      keeps_contract (print_small c) doc;
      (* A profiled run reports its profile. *)
      List.iter
        (fun run ->
          if (run |. "profile" <> Json.Null) <> c.profile then
            Alcotest.fail "profile section does not match the profile flag")
        (List.concat_map runs (sections doc));
      true)

let scale_prop =
  QCheck2.Test.make ~name:"every small bench-scale document keeps the contract"
    ~count:10
    ~print:(fun (ns, ops, seed) ->
      Printf.sprintf "ns=[%s] ops=%d seed=%d"
        (String.concat "," (List.map string_of_int ns))
        ops seed)
    QCheck2.Gen.(
      triple
        (list_size (int_range 1 3) (int_range 2 60))
        (int_range 1 80) (int_bound 100_000))
    (fun (ns, ops, seed) ->
      keeps_contract "scale"
        (written (Driver.scale_json (Driver.run_scale ~seed ~ops ns)));
      true)

let cache_prop =
  QCheck2.Test.make ~name:"every small bench-cache document keeps the contract"
    ~count:10
    ~print:(fun (n, ops, keys_per_node, seed) ->
      Printf.sprintf "n=%d ops=%d keys_per_node=%d seed=%d" n ops keys_per_node
        seed)
    QCheck2.Gen.(
      quad (int_range 1 60) (int_range 1 80) (int_range 1 4) (int_bound 100_000))
    (fun (n, ops, keys_per_node, seed) ->
      keeps_contract "cache"
        (cache_doc ~seed ~n ~keys_per_node ~ops ~range_span:2_000_000);
      true)

let suite =
  [
    Alcotest.test_case "committed runtime document" `Quick test_committed_runtime;
    Alcotest.test_case "committed scale document" `Quick test_committed_scale;
    Alcotest.test_case "committed cache document" `Quick test_committed_cache;
    Alcotest.test_case "CI smoke config" `Quick test_smoke;
    Alcotest.test_case "CI adversarial config" `Quick test_adversarial;
    Alcotest.test_case "CI overlay-matrix config" `Quick test_overlay_matrix;
    Alcotest.test_case "CI overlay faults config" `Quick test_overlay_faults;
    Alcotest.test_case "CI cache smoke config" `Quick test_cache_smoke;
    Alcotest.test_case "cache sweep rejects bad counts" `Quick
      test_cache_rejections;
    Alcotest.test_case "untampered documents pass" `Quick
      test_untampered_documents_pass;
    Alcotest.test_case "each rule catches its edit" `Quick test_tamper_table;
    Alcotest.test_case "shrunk property failures" `Quick test_fixtures;
    QCheck_alcotest.to_alcotest runtime_prop;
    QCheck_alcotest.to_alcotest scale_prop;
    QCheck_alcotest.to_alcotest cache_prop;
  ]
