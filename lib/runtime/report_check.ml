(* The report contract. Each checker walks one object and records the
   rules it breaks; [check] prefixes them with the run's label.

   Numbers are read through [num], which turns a missing or non-numeric
   field into nan. Every rule is written as the comparison that must
   hold, so nan fails it: a malformed field is a breach, never a
   vacuous pass. *)

module Json = Baton_obs.Json

let runtime_schema = "baton-bench-runtime-v8"
let scale_schema = "baton-bench-scale-v1"
let cache_schema = "baton-bench-cache-v1"

let num k j =
  match Json.member k j with
  | Some (Json.Int i) -> float_of_int i
  | Some (Json.Float f) -> f
  | _ -> Float.nan

let list k j = match Json.member k j with Some (Json.List l) -> l | _ -> []
let obj k j = Option.value (Json.member k j) ~default:Json.Null

let present = function None | Some Json.Null -> false | Some _ -> true

(* [need rules ok rule] records [rule] unless [ok]. *)
let need rules ok rule = if not ok then rules := rule :: !rules

let fields rules ~what j names =
  List.iter
    (fun k ->
      need rules
        (Option.is_some (Json.member k j))
        (Printf.sprintf "%smissing field %s" what k))
    names

let run_fields =
  [ "mix"; "n"; "seed"; "clients"; "arrival"; "ops_issued"; "completed";
    "failed"; "retries"; "messages"; "route_cache"; "cache"; "duration_ms";
    "throughput_ops_per_s"; "latency_ms"; "queue_depth"; "monitor_every_ms";
    "health"; "series_every_ms"; "timeseries"; "profile"; "faults";
    "oracle" ]

let check_faults rules run =
  let f = obj "faults" run in
  fields rules ~what:"faults " f
    [ "schedule"; "partition_timeouts"; "gray_drops"; "scenario" ];
  need rules
    (present (Json.member "schedule" f)
    || (list "scenario" f = []
       && num "partition_timeouts" f = 0.
       && num "gray_drops" f = 0.))
    "fault activity without a fault schedule"

let check_oracle rules run =
  match Json.member "oracle" run with
  | None | Some Json.Null -> ()
  | Some o ->
    need rules (num "violations" o = 0.) "oracle violations";
    need rules
      (num "violations" o
      = float_of_int (List.length (list "violation_details" o))
        +. num "violation_details_dropped" o)
      "oracle violations <> violation_details + dropped";
    need rules
      (match Json.member "by_op" o with
      | Some (Json.Obj kinds) ->
        List.for_all (fun (_, c) -> num "violations" c = 0.) kinds
      | _ -> false)
      "oracle by_op violations"

let levels = [ "ok"; "degraded"; "violated" ]

let check_health rules run =
  let monitored = num "monitor_every_ms" run > 0. in
  match Json.member "health" run with
  | None | Some Json.Null ->
    need rules (not monitored) "health null while monitor_every_ms > 0"
  | Some h ->
    need rules monitored "health present while monitor_every_ms = 0";
    fields rules ~what:"health " h [ "samples"; "events"; "summary" ];
    need rules (Json.member "load" h = None) "health carries a load array";
    let samples = list "samples" h in
    need rules (samples <> []) "health has no samples";
    need rules
      (num "ticks" (obj "summary" h) >= float_of_int (List.length samples))
      "health summary.ticks below its sample count";
    need rules
      (List.for_all
         (fun s ->
           match Json.member "overall" s with
           | Some (Json.String l) -> List.mem l levels
           | _ -> false)
         samples)
      "health sample overall not ok/degraded/violated"

let check_series rules run =
  let sampled = num "series_every_ms" run > 0. in
  match Json.member "timeseries" run with
  | None | Some Json.Null ->
    need rules (not sampled) "timeseries null while series_every_ms > 0"
  | Some ts ->
    need rules sampled "timeseries present while series_every_ms = 0";
    fields rules ~what:"timeseries " ts
      [ "every_ms"; "recorded"; "dropped"; "samples" ];
    let samples = list "samples" ts in
    need rules (samples <> []) "timeseries has no samples";
    need rules
      (num "recorded" ts
      = num "dropped" ts +. float_of_int (List.length samples))
      "timeseries recorded <> dropped + samples";
    let has k s = Option.is_some (Json.member k s) in
    need rules
      (List.for_all
         (fun s -> has "t" s && has "completed" s && has "messages" s)
         samples)
      "timeseries sample lacks t/completed/messages";
    need rules
      (List.for_all
         (fun s -> has "heat_skew" s = present (Json.member "load" run))
         samples)
      "timeseries heat_skew without a load section, or a load section \
       without heat_skew"

let check_load rules run =
  match Json.member "load" run with
  | None | Some Json.Null -> ()
  | Some load ->
    fields rules ~what:"load " load
      [ "classes"; "peers"; "hot_keys"; "heatmap"; "skew" ];
    need rules
      (match Json.member "classes" load with
      | Some (Json.Obj cs) ->
        List.sort compare (List.map fst cs)
        = [ "aux"; "maint"; "route"; "serve" ]
      | _ -> false)
      "load classes are not serve/route/maint/aux";
    let hk = obj "hot_keys" load in
    let share = num "topk_share" hk in
    need rules
      (0. <= share && share <= 1.)
      "load hot_keys.topk_share outside [0, 1]";
    let entries = list "entries" hk in
    need rules
      (float_of_int (List.length entries) <= num "k" hk)
      "load hot_keys has more than k entries";
    let counts = List.map (num "count") entries in
    need rules
      (counts = List.sort (fun a b -> Float.compare b a) counts)
      "load hot_keys entries not sorted by count";
    let hm = obj "heatmap" load in
    let buckets = list "counts" hm in
    need rules
      (float_of_int (List.length buckets) = num "buckets" hm)
      "load heatmap.counts length <> buckets";
    let count = function Json.Int i -> float_of_int i | _ -> Float.nan in
    need rules
      (List.fold_left (fun acc c -> acc +. count c) 0. buckets
      >= num "accesses" hk)
      "load heatmap holds fewer counts than hot_keys.accesses";
    need rules (num "ratio" (obj "skew" load) >= 0.) "load skew.ratio negative"

let check_profile rules run =
  match Json.member "profile" run with
  | None | Some Json.Null -> ()
  | Some p ->
    fields rules ~what:"profile " p
      [ "wall_ms"; "events"; "events_per_s"; "gc"; "subsystems" ];
    let wall = num "wall_ms" p in
    need rules
      (wall > 0. && num "events" p > 0. && num "events_per_s" p > 0.)
      "profile wall_ms, events or events_per_s not positive";
    let rows =
      match Json.member "subsystems" p with Some (Json.Obj r) -> r | _ -> []
    in
    need rules
      (List.mem_assoc "engine.dispatch" rows)
      "profile lacks the engine.dispatch row";
    need rules
      (List.for_all
         (fun (_, r) ->
           Option.is_some (Json.member "calls" r)
           && Option.is_some (Json.member "self_ms" r))
         rows)
      "profile row lacks calls/self_ms";
    let total = List.fold_left (fun a (_, r) -> a +. num "self_ms" r) 0. rows in
    need rules
      (Float.abs (total -. wall) <= 0.01 *. wall)
      "profile rows do not sum to wall_ms within 1%";
    fields rules ~what:"profile gc " (obj "gc" p)
      [ "minor_collections"; "major_collections"; "minor_words" ]

let check_cache rules run =
  let c = obj "cache" run in
  let counters = [ "messages"; "hits"; "misses"; "stale" ] in
  fields rules ~what:"cache " c counters;
  need rules
    (Json.member "route_cache" run <> Some (Json.Bool false)
    || List.for_all (fun k -> num k c = 0.) counters)
    "cache traffic while route_cache is off"

let digest_fields = [ "ops"; "mean_ms"; "p50_ms"; "p95_ms"; "p99_ms"; "max_ms" ]

let check_latency rules run =
  match Json.member "latency_ms" run with
  | Some (Json.Obj kinds) ->
    List.iter
      (fun (kind, d) ->
        let what = Printf.sprintf "latency_ms.%s " kind in
        fields rules ~what d digest_fields;
        need rules
          (num "p50_ms" d <= num "p95_ms" d
          && num "p95_ms" d <= num "p99_ms" d
          && num "p99_ms" d <= num "max_ms" d)
          (what ^ "percentiles out of order"))
      kinds
  | _ -> ()

(* The rules every run object of a runtime or scale document keeps. *)
let run_rules run =
  let rules = ref [] in
  fields rules ~what:"" run run_fields;
  need rules
    (num "completed" run +. num "failed" run = num "ops_issued" run)
    "completed + failed <> ops_issued";
  List.iter
    (fun f -> f rules run)
    [ check_faults; check_oracle; check_health; check_series; check_load;
      check_profile; check_cache; check_latency ];
  rules

let runtime_breaches doc =
  let sections = list "overlays" doc in
  let doc_rules = ref [] in
  need doc_rules (sections <> []) "no overlay sections";
  need doc_rules
    (List.for_all
       (fun s ->
         (match Json.member "overlay" s with
         | Some (Json.String _) -> true
         | _ -> false)
         && list "runs" s <> [])
       sections)
    "overlay section without a name or runs";
  (("document", doc_rules)
  :: List.map (fun (label, run) -> (label, run_rules run))
       (Bench_diff.labeled_runs doc))

let scale_breaches doc =
  let runs = Bench_diff.labeled_runs doc in
  let doc_rules = ref [] in
  need doc_rules (runs <> []) "no runs";
  ("document", doc_rules)
  :: List.map
       (fun (label, run) ->
         let rules = run_rules run in
         need rules
           (Json.member "mix" run
           = Some (Json.String (Printf.sprintf "n=%.0f" (num "n" run))))
           "mix is not n=<n>";
         need rules
           (present (Json.member "profile" run))
           "scale run unprofiled";
         (label, rules))
       runs

let cache_breaches doc =
  let doc_rules = ref [] in
  fields doc_rules ~what:"" doc
    [ "seed"; "n"; "keys_per_node"; "ops"; "range_span"; "capacity" ];
  let runs = list "runs" doc in
  need doc_rules (List.length runs >= 7) "fewer than 7 cells";
  ("document", doc_rules)
  :: List.mapi
       (fun i cell ->
         let rules = ref [] in
         fields rules ~what:"" cell
           [ "theta"; "churn_pct"; "ops"; "hits"; "misses"; "stale";
             "hit_rate"; "base_msgs"; "cache_msgs"; "aux_msgs";
             "reduction_pct"; "wrong_answers"; "partial" ];
         need rules (num "wrong_answers" cell = 0.) "wrong answers";
         need rules
           (num "churn_pct" cell > 0. || num "stale" cell = 0.)
           "stale shortcuts at zero churn";
         need rules
           (num "churn_pct" cell > 0. || num "partial" cell = 0.)
           "partial answers at zero churn";
         let label =
           match (Json.member "theta" cell, Json.member "churn_pct" cell) with
           | Some (Json.Float t), Some (Json.Int c) ->
             Printf.sprintf "theta=%g/churn=%d%%" t c
           | _ -> Printf.sprintf "run %d" i
         in
         (label, rules))
       runs

let check doc =
  let by_rules =
    match Json.member "schema" doc with
    | Some (Json.String s) when String.equal s runtime_schema ->
      runtime_breaches doc
    | Some (Json.String s) when String.equal s scale_schema ->
      scale_breaches doc
    | Some (Json.String s) when String.equal s cache_schema ->
      cache_breaches doc
    | Some (Json.String s) ->
      [ ("document", ref [ Printf.sprintf "unknown schema %S" s ]) ]
    | _ -> [ ("document", ref [ "no schema field" ]) ]
  in
  List.concat_map
    (fun (where, rules) ->
      List.rev_map (fun rule -> where ^ ": " ^ rule) !rules)
    by_rules
