(* baton — command-line driver for the BATON simulator.

   Subcommands:
     simulate   build a network, load data, run queries, report costs
     churn      run a join/leave/failure schedule and verify recovery
     inspect    build a network and print its structure summary *)

module N = Baton.Network
module Net = Baton.Net
module Node = Baton.Node
module Metrics = Baton_sim.Metrics
module Rng = Baton_util.Rng
module Stats = Baton_util.Stats
module Datagen = Baton_workload.Datagen
module Churn = Baton_workload.Churn
module Driver = Baton_runtime.Driver
module Bench_diff = Baton_runtime.Bench_diff

open Cmdliner

let nodes_arg =
  Arg.(value & opt int 1000 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Network size.")

let seed_arg =
  Arg.(value & opt int 2005 & info [ "seed" ] ~docv:"SEED" ~doc:"Deterministic seed.")

let keys_arg =
  Arg.(
    value & opt int 20
    & info [ "keys-per-node" ] ~docv:"K" ~doc:"Data volume per peer.")

let queries_arg =
  Arg.(value & opt int 1000 & info [ "q"; "queries" ] ~docv:"Q" ~doc:"Queries to run.")

let zipf_arg =
  Arg.(value & flag & info [ "zipf" ] ~doc:"Use Zipf(1.0) keys instead of uniform.")

let capacity_arg =
  Arg.(
    value & opt (some int) None
    & info [ "balance-capacity" ] ~docv:"C"
        ~doc:"Enable load balancing with this per-node capacity.")

(* Range-query span of the demo workloads: five peers' worth of the key
   domain, clamped to the domain so networks under five peers still draw
   a valid range. *)
let range_span nodes =
  let width = Datagen.domain_hi - Datagen.domain_lo in
  min width (width / max 1 nodes * 5)

let print_kind_breakdown metrics =
  Printf.printf "\nMessage breakdown by kind:\n";
  List.iter
    (fun (kind, count) -> Printf.printf "  %-16s %10d\n" kind count)
    (Metrics.kinds metrics)

let load_summary net =
  let loads =
    List.map (fun n -> float_of_int (Node.load n)) (Net.peers net) |> Array.of_list
  in
  Printf.printf "Load per node: %s\n" (Stats.summary loads)

let simulate nodes seed keys_per_node queries zipf capacity =
  Printf.printf "Building a %d-peer BATON network (seed %d)...\n%!" nodes seed;
  let net = N.build ~seed nodes in
  let metrics = Net.metrics net in
  let build_msgs = Metrics.total metrics in
  Printf.printf "  height %d (1.44 log2 N = %.1f), %d messages to build\n%!"
    (N.height net)
    (1.44 *. (log (float_of_int nodes) /. log 2.))
    build_msgs;
  let rng = Rng.create (seed + 1) in
  let gen = if zipf then Datagen.zipf rng else Datagen.uniform rng in
  let cfg = Option.map (fun c -> Baton.Balance.default_config ~capacity:c) capacity in
  let total_keys = keys_per_node * nodes in
  Printf.printf "Inserting %d %s keys%s...\n%!" total_keys
    (if zipf then "Zipf(1.0)" else "uniform")
    (match capacity with
    | Some c -> Printf.sprintf " with balancing (capacity %d)" c
    | None -> "");
  let keys = Array.init total_keys (fun _ -> Datagen.next gen) in
  let insert_cp = Metrics.checkpoint metrics in
  Array.iter
    (fun k ->
      let st = Baton.Update.insert net ~from:(Net.random_peer net) k in
      match cfg with
      | Some cfg ->
        ignore (Baton.Balance.maybe_balance net cfg (Net.peer net st.Baton.Update.node))
      | None -> ())
    keys;
  Printf.printf "  %.2f messages per insertion\n%!"
    (float_of_int (Metrics.since metrics insert_cp) /. float_of_int total_keys);
  load_summary net;
  let qrng = Rng.create (seed + 2) in
  let exact_hops =
    Array.init queries (fun _ ->
        let k = Rng.pick qrng keys in
        let r = Baton.Search.lookup net ~from:(Net.random_peer net) k in
        assert r.Baton.Search.found;
        float_of_int r.Baton.Search.hops)
  in
  Printf.printf "Exact queries:  %s\n" (Stats.summary exact_hops);
  let span = range_span nodes in
  let range_hops =
    Array.init queries (fun _ ->
        let lo = Rng.int_in_range qrng ~lo:Datagen.domain_lo ~hi:(Datagen.domain_hi - span) in
        let r = Baton.Search.range net ~from:(Net.random_peer net) ~lo ~hi:(lo + span) in
        float_of_int r.Baton.Search.hops)
  in
  Printf.printf "Range queries:  %s\n" (Stats.summary range_hops);
  print_kind_breakdown metrics;
  Baton.Check.all net;
  Printf.printf "\nAll structural invariants hold.\n"

let churn nodes seed rounds fail_percent =
  Printf.printf "Building a %d-peer network (seed %d)...\n%!" nodes seed;
  let net = N.build ~seed nodes in
  let rng = Rng.create (seed + 3) in
  let gen = Datagen.uniform (Rng.create (seed + 4)) in
  let keys = Array.init (5 * nodes) (fun _ -> Datagen.next gen) in
  Array.iter (N.insert net) keys;
  let metrics = Net.metrics net in
  let cp = Metrics.checkpoint metrics in
  let fails = rounds * fail_percent / 100 in
  let schedule =
    Churn.schedule rng ~joins:(rounds - fails) ~leaves:(rounds - fails) ~fails:(2 * fails)
  in
  Array.iter
    (fun event ->
      match event with
      | Churn.Join -> ignore (N.join net)
      | Churn.Leave ->
        if Net.size net > 2 then
          let ids = Net.live_ids net in
          N.leave net (Rng.pick rng ids)
      | Churn.Fail ->
        if Net.size net > 2 then begin
          let ids = Net.live_ids net in
          let victim = Rng.pick rng ids in
          N.crash net victim;
          N.repair net victim
        end)
    schedule;
  Printf.printf "  %d churn events, %d messages (%.1f per event)\n"
    (Array.length schedule)
    (Metrics.since metrics cp)
    (float_of_int (Metrics.since metrics cp) /. float_of_int (max 1 (Array.length schedule)));
  Printf.printf "  final size %d, height %d\n" (Net.size net) (N.height net);
  let survivors =
    Array.to_list keys
    |> List.filter (fun k -> N.lookup net k)
    |> List.length
  in
  Printf.printf "  %d of %d keys survive (failures lose unreplicated data)\n"
    survivors (Array.length keys);
  Baton.Check.all net;
  Printf.printf "All structural invariants hold after churn.\n"

(* Load the snapshot at [path] for command [cmd], or exit 1 with one
   message saying how to get a readable one: [inspect --snapshot]
   writes a fresh snapshot to a path that does not exist yet. *)
let load_snapshot ~cmd path =
  let fail problem =
    Printf.eprintf "baton %s: %s\n%s\n" cmd problem
      (if Sys.file_exists path then
         Printf.sprintf
           "Remove %s, then run `baton inspect --snapshot %s` to write a \
            fresh one."
           path path
       else
         Printf.sprintf "Run `baton inspect --snapshot %s` to write one." path);
    exit 1
  in
  match Net.load path with
  | net -> net
  | exception Net.Incompatible_snapshot { found; expected } ->
    fail
      (Printf.sprintf
         "%s holds snapshot version %S, but this build reads %S." path found
         expected)
  | exception Failure msg -> fail (Printf.sprintf "%s: %s" path msg)
  | exception End_of_file -> fail (Printf.sprintf "%s: truncated snapshot" path)
  | exception Sys_error msg -> fail msg

let inspect nodes seed show_tree snapshot =
  let net =
    match snapshot with
    | Some path when Sys.file_exists path ->
      let net = load_snapshot ~cmd:"inspect" path in
      Printf.printf "(loaded snapshot %s)\n" path;
      net
    | _ ->
      let net = N.build ~seed nodes in
      (match snapshot with
      | Some path ->
        Net.save net path;
        Printf.printf "(saved snapshot to %s)\n" path
      | None -> ());
      net
  in
  Printf.printf "BATON network: %d peers, height %d\n" (Net.size net) (N.height net);
  if show_tree then print_string (Baton.Viz.tree ~max_depth:5 net);
  let by_level = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let l = Node.level n in
      Hashtbl.replace by_level l (1 + Option.value ~default:0 (Hashtbl.find_opt by_level l)))
    (Net.peers net);
  Hashtbl.fold (fun l c acc -> (l, c) :: acc) by_level []
  |> List.sort compare
  |> List.iter (fun (l, c) ->
         Printf.printf "  level %2d: %4d nodes (capacity %d)\n" l c
           (Baton.Position.level_width l));
  let leaves = List.filter Node.is_leaf (Net.peers net) in
  Printf.printf "  %d leaves; routing-table fill: " (List.length leaves);
  let fills =
    List.map
      (fun n ->
        float_of_int
          (Baton.Routing_table.filled_count n.Node.left_table
          + Baton.Routing_table.filled_count n.Node.right_table))
      (Net.peers net)
    |> Array.of_list
  in
  Printf.printf "%s\n" (Stats.summary fills);
  Baton.Check.all net;
  Printf.printf "All structural invariants hold.\n"

(* Causal trace of one seeded range query under the concurrent
   runtime: every message carries a trace context, the collector
   reconstructs the hop DAG, and the report shows the critical path —
   the chain the runtime actually charged as completion time — against
   the total message count. Deterministic: two same-seed invocations
   are byte-identical. *)
let trace_causal nodes seed json =
  let module Runtime = Baton_runtime.Runtime in
  let module Trace = Baton_obs.Trace in
  let net = N.build ~seed nodes in
  (* Data load is setup, not the traced operation. *)
  let gen = Datagen.uniform (Rng.create (seed + 1)) in
  let keys = Array.init (5 * nodes) (fun _ -> Datagen.next gen) in
  ignore
    (Baton.Update.bulk_insert net ~from:(Net.random_peer net)
       (Array.to_list keys));
  let rt = Runtime.create net in
  let tracer = Trace.create () in
  Trace.use_engine tracer (Runtime.engine rt);
  Net.set_tracer net (Some tracer);
  let span = range_span nodes in
  let lo =
    Rng.int_in_range
      (Rng.create (seed + 2))
      ~lo:Datagen.domain_lo
      ~hi:(Datagen.domain_hi - span)
  in
  let hi = lo + span in
  let origin = Net.random_peer net in
  let par l r = Runtime.both l r in
  let finished = ref 0. in
  Runtime.spawn rt
    (fun () -> ignore (Baton.Search.range ~par net ~from:origin ~lo ~hi))
    ~on_done:(fun _ -> finished := Runtime.now rt);
  Runtime.run rt;
  Net.set_tracer net None;
  match Trace.latest tracer with
  | None -> prerr_endline "baton trace: no episode was traced"; exit 1
  | Some ep ->
    if json then print_string (Trace.episode_jsonl ep)
    else begin
      Printf.printf "range query [%d, %d] from peer %d under the runtime:\n"
        lo hi origin.Node.id;
      print_string (Trace.render ep);
      let a = Trace.analyze ep in
      Printf.printf
        "runtime completion %.1f ms; critical path %d of %d msgs, %.1f ms\n"
        !finished a.Trace.crit_hops a.Trace.msgs a.Trace.crit_ms
    end

let trace nodes seed key json causal =
  if causal then trace_causal nodes seed json
  else
  let module Trace = Baton_obs.Trace in
  let net = N.build ~seed nodes in
  (* The tracer is installed after the build, so exactly the query's
     hops are recorded. Everything downstream of the seed is
     deterministic, so two same-seed runs print identical bytes. *)
  let tracer = Trace.create ~capacity:1 () in
  Net.set_tracer net (Some tracer);
  let origin = Net.random_peer net in
  let outcome = Baton.Search.exact net ~from:origin key in
  Net.set_tracer net None;
  match Trace.latest tracer with
  | None -> prerr_endline "baton trace: no episode was traced"; exit 1
  | Some ep when json -> print_string (Trace.episode_jsonl ep)
  | Some ep ->
    Printf.printf "exact search for key %d from peer %d:\n" key origin.Node.id;
    Printf.printf "  start  %s\n" (Baton.Viz.node_line origin);
    List.iter
      (fun (h : Trace.hop) ->
        Printf.printf "  %d->%d  %s  (%s)\n" h.src h.dst
          (Baton.Viz.node_line (Net.peer net h.dst))
          h.msg)
      (Trace.hops ep);
    Printf.printf "answered at %s in %d hops\n"
      (Baton.Viz.node_line outcome.Baton.Search.node)
      outcome.Baton.Search.hops

let hist_json h =
  let module Histogram = Baton_util.Histogram in
  let module Json = Baton_obs.Json in
  if Histogram.total h = 0 then Json.Null
  else
    Json.Obj
      [
        ("mean", Json.Float (Histogram.mean h));
        ("p50", Json.Int (Histogram.percentile h 50.));
        ("p95", Json.Int (Histogram.percentile h 95.));
        ("p99", Json.Int (Histogram.percentile h 99.));
        ("max", Json.Int (Option.value ~default:0 (Histogram.max_value h)));
      ]

(* Run a deterministic mixed workload under a tracer and report
   per-operation-kind percentile digests plus one digest of the final
   per-peer message load — the tail-visibility companion to
   [simulate]'s means. Each top-level operation is one trace episode
   (nested restructures and repairs fold into it); its hops are the
   critical-path length, its msgs every transmission. The load digest
   covers every peer that ever handled a message, departed ones
   included. *)
let stats nodes seed keys_per_node queries churn_rounds snapshot =
  let module Trace = Baton_obs.Trace in
  let module Histogram = Baton_util.Histogram in
  let net =
    match snapshot with
    | None -> N.build ~seed nodes
    | Some path ->
      let net = load_snapshot ~cmd:"stats" path in
      Printf.eprintf "(loaded snapshot %s: %d peers)\n%!" path (Net.size net);
      net
  in
  let tracer = Trace.create ~capacity:1 () in
  Net.set_tracer net (Some tracer);
  (* kind -> (count, hops, msgs) *)
  let digests = Hashtbl.create 8 in
  let observe f =
    let before = Trace.episode_count tracer in
    let v = f () in
    (match Trace.latest tracer with
    | Some ep when Trace.episode_count tracer > before ->
      let a = Trace.analyze ep in
      let count, hops, msgs =
        match Hashtbl.find_opt digests a.Trace.a_op with
        | Some d -> d
        | None ->
          let d = (ref 0, Histogram.create (), Histogram.create ()) in
          Hashtbl.add digests a.Trace.a_op d;
          d
      in
      incr count;
      Histogram.add hops a.Trace.crit_hops;
      Histogram.add msgs a.Trace.msgs
    | Some _ | None -> ());
    v
  in
  let gen = Datagen.uniform (Rng.create (seed + 1)) in
  let keys = Array.init (keys_per_node * nodes) (fun _ -> Datagen.next gen) in
  Array.iter
    (fun k ->
      observe (fun () ->
          ignore (Baton.Update.insert net ~from:(Net.random_peer net) k)))
    keys;
  let crng = Rng.create (seed + 3) in
  for _ = 1 to churn_rounds do
    observe (fun () -> ignore (N.join net));
    if Net.size net > 2 then begin
      let ids = Net.live_ids net in
      observe (fun () -> N.leave net (Rng.pick crng ids))
    end
  done;
  let qrng = Rng.create (seed + 2) in
  let span = range_span nodes in
  for i = 1 to queries do
    (if i mod 4 = 0 then
       let lo =
         Rng.int_in_range qrng ~lo:Datagen.domain_lo
           ~hi:(Datagen.domain_hi - span)
       in
       observe (fun () ->
           ignore
             (Baton.Search.range net ~from:(Net.random_peer net) ~lo
                ~hi:(lo + span)))
     else
       let k = Rng.pick qrng keys in
       observe (fun () ->
           ignore (Baton.Search.lookup net ~from:(Net.random_peer net) k)))
  done;
  Net.set_tracer net None;
  let load = Histogram.create () in
  List.iter (fun (_, count) -> Histogram.add load count)
    (Metrics.per_node (Net.metrics net));
  let module Json = Baton_obs.Json in
  let ops =
    Hashtbl.fold (fun kind d acc -> (kind, d) :: acc) digests []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (kind, (count, hops, msgs)) ->
           Json.Obj
             [
               ("kind", Json.String kind);
               ("count", Json.Int !count);
               ("hops", hist_json hops);
               ("msgs", hist_json msgs);
             ])
  in
  print_endline
    (Json.to_pretty_string
       (Json.Obj
          [ ("ops", Json.List ops); ("load", hist_json load) ]))

let compare_overlays nodes seed ops =
  let rng = Rng.create (seed + 9) in
  let keys = Array.init ops (fun _ -> Rng.int_in_range rng ~lo:1 ~hi:999_999_999) in
  Printf.printf "%-10s %10s %12s %12s %12s %12s %14s\n" "overlay" "build"
    "msgs/bulk" "msgs/lookup" "msgs/churn" "cache msgs" "range query";
  List.iter
    (fun (module O : P2p_overlay.Overlay.S) ->
      let t = O.create ~seed ~n:nodes in
      let msgs () = (O.stats t).P2p_overlay.Overlay.total in
      let build = msgs () in
      let before = msgs () in
      (* The batched path: one bulk load instead of [ops] routed
         inserts; per-key cost shows the amortization. *)
      O.bulk_load t (Array.to_list keys);
      let load_cost = float_of_int (msgs () - before) /. float_of_int ops in
      let before = msgs () in
      Array.iter (fun k -> assert (O.lookup t k)) keys;
      let lookup_cost = float_of_int (msgs () - before) /. float_of_int ops in
      let before = msgs () in
      let churn_rng = Rng.create (seed + 11) in
      for _ = 1 to 20 do
        O.join t;
        O.leave_random t churn_rng
      done;
      let churn_cost = float_of_int (msgs () - before) /. 40. in
      let range =
        if O.supports_range then
          let answer = O.range_query t ~lo:1 ~hi:50_000_000 in
          Printf.sprintf "%d keys" (List.length answer)
        else "unsupported"
      in
      O.check t;
      let stats = O.stats t in
      Printf.printf "%-10s %10d %12.2f %12.2f %12.2f %12d %14s\n" O.name build
        load_cost lookup_cost churn_cost stats.P2p_overlay.Overlay.cache range)
    P2p_overlay.Overlay.all;
  print_endline "\nall overlays pass their structural checks"

(* Concurrent workload driver: execute a seeded operation mix per
   selected overlay as interleaved fibers on the discrete-event runtime
   and emit the BENCH_runtime.json document. *)
let bench_run nodes seed keys_per_node ops clients overlay_names mix_names
    arrival rate think_ms route_cache monitor_every series_every profile heat
    faults oracle out timeseries_out =
  let overlays =
    let names = match overlay_names with [] -> [ "baton" ] | ns -> ns in
    let names =
      if
        List.exists
          (fun n -> String.equal (String.lowercase_ascii n) "all")
          names
      then P2p_overlay.Overlay.names
      else names
    in
    (* Canonicalize (resolving aliases), then dedupe keeping order. *)
    List.fold_left
      (fun acc name ->
        let canonical =
          match P2p_overlay.Overlay.of_name name with
          | (module O : P2p_overlay.Overlay.S) -> O.name
          | exception P2p_overlay.Overlay.Unknown_overlay { name; valid } ->
            Printf.eprintf "unknown overlay %S (valid: %s)\n" name
              (String.concat ", " valid);
            exit 1
        in
        if List.mem canonical acc then acc else acc @ [ canonical ])
      [] names
  in
  let has_non_baton =
    List.exists (fun o -> not (String.equal o "baton")) overlays
  in
  if has_non_baton && (route_cache || faults <> None) then begin
    Printf.eprintf
      "--route-cache and --faults read BATON's network; drop them or \
       keep --overlay baton\n";
    exit 2
  end;
  if has_non_baton && (monitor_every > 0. || heat) then
    Printf.eprintf
      "note: monitoring and heat read BATON's network; disabled for the \
       other overlays\n";
  let fault_schedule =
    match faults with
    | None -> []
    | Some spec -> (
      match Baton_sim.Partition.parse spec with
      | Ok schedule -> schedule
      | Error msg ->
        Printf.eprintf "bad fault schedule %S: %s\n" spec msg;
        exit 2)
  in
  (* A faulted run without the oracle is a benchmark with no referee. *)
  let oracle = oracle || fault_schedule <> [] in
  let mixes =
    match mix_names with
    | [] -> Driver.mixes
    | names ->
      List.map
        (fun name ->
          match Driver.mix_named name with
          | Some m -> m
          | None ->
            Printf.eprintf "unknown mix %S (known: %s)\n" name
              (String.concat ", "
                 (List.map
                    (fun m -> m.Driver.mix_name)
                    (Driver.mixes @ [ Driver.adversarial ])));
            exit 2)
        names
  in
  let arrival =
    match arrival with
    | "closed" -> Driver.Closed { think_ms }
    | "open" -> Driver.Open { rate_per_s = rate }
    | other ->
      Printf.eprintf "unknown arrival model %S (closed|open)\n" other;
      exit 2
  in
  let sections =
    List.map
      (fun overlay ->
        let baton = String.equal overlay "baton" in
        let reports =
          List.map
            (fun mix ->
              let cfg =
                match
                  Driver.config ~overlay ~seed ~keys_per_node ~clients ~ops
                    ~arrival ~route_cache
                    ~monitor_every_ms:(if baton then monitor_every else 0.)
                    ~series_every_ms:series_every ~profile
                    ~heat:(baton && heat)
                    ~fault_schedule ~oracle ~n:nodes ~mix ()
                with
                | cfg -> cfg
                | exception Invalid_argument msg ->
                  Printf.eprintf "%s\n" msg;
                  exit 2
              in
              Printf.eprintf "running %s/%s (n=%d, %d ops)...\n%!" overlay
                mix.Driver.mix_name nodes ops;
              let r = Driver.run cfg in
              print_endline
                (if List.length overlays > 1 then
                   Printf.sprintf "%-10s %s" overlay (Driver.summary r)
                 else Driver.summary r);
              r)
            mixes
        in
        (overlay, reports))
      overlays
  in
  (* One stderr line for the whole invocation — aggregate wall clock
     and engine throughput over the profiled runs — so scale runs are
     legible without parsing the JSON report. *)
  (let profiled =
     List.concat_map
       (fun (_, rs) ->
         List.filter (fun (r : Driver.report) -> r.Driver.wall_ms > 0.) rs)
       sections
   in
   match profiled with
   | [] -> ()
   | rs ->
     let wall =
       List.fold_left (fun a (r : Driver.report) -> a +. r.Driver.wall_ms) 0. rs
     in
     let events =
       List.fold_left
         (fun a (r : Driver.report) ->
           a +. (r.Driver.events_per_s *. r.Driver.wall_ms /. 1000.))
         0. rs
     in
     Printf.eprintf "bench-run: %d runs, wall %.0f ms, %.0f events/s\n%!"
       (List.length rs) wall
       (if wall > 0. then events /. (wall /. 1000.) else 0.));
  (match timeseries_out with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc (Driver.timeseries_jsonl sections));
    Printf.eprintf "wrote %s\n" path);
  let doc =
    Baton_obs.Json.to_pretty_string (Driver.bench_json sections) ^ "\n"
  in
  match out with
  | None -> print_string doc
  | Some path ->
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc doc);
    Printf.eprintf "wrote %s\n" path

(* Render a bench-run report's demand sections — ASCII key-space
   heatmap, heavy-hitter table, per-class attribution — from the JSON
   document on disk. Reads v7 and v8 documents (v8 only dropped
   [health.load]); runs without a [load] section (heat was off) are
   skipped, and if nothing renders the exit status says how to get
   one. *)
let heat_render path overlay_filter mix_filter =
  let contents =
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> contents
    | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 3
  in
  let doc =
    match Baton_obs.Json.parse contents with
    | Ok doc -> doc
    | Error msg ->
      Printf.eprintf "%s: JSON parse error: %s\n" path msg;
      exit 3
  in
  let module Json = Baton_obs.Json in
  let str = function Some (Json.String s) -> s | _ -> "" in
  let wanted filter name =
    match filter with None -> true | Some f -> String.equal f name
  in
  let overlays =
    match Json.member "overlays" doc with
    | Some (Json.List l) -> l
    | _ ->
      Printf.eprintf
        "%s: no overlays section — not a bench-run document?\n" path;
      exit 3
  in
  let rendered = ref 0 in
  List.iter
    (fun section ->
      let overlay = str (Json.member "overlay" section) in
      let runs =
        match Json.member "runs" section with
        | Some (Json.List l) -> l
        | _ -> []
      in
      if wanted overlay_filter overlay then
        List.iter
          (fun run ->
            let mix = str (Json.member "mix" run) in
            if wanted mix_filter mix then
              match Json.member "load" run with
              | None | Some Json.Null -> ()
              | Some load -> (
                match Baton_obs.Heat.render load with
                | Ok text ->
                  if !rendered > 0 then print_newline ();
                  Printf.printf "=== %s / %s ===\n%s" overlay mix text;
                  incr rendered
                | Error msg ->
                  Printf.eprintf "%s: %s/%s: malformed load section: %s\n"
                    path overlay mix msg;
                  exit 3))
          runs)
    overlays;
  if !rendered = 0 then begin
    Printf.eprintf
      "%s: no load sections%s — generate one with `baton bench-run --heat \
       ...` (heat is on by default for the baton overlay)\n"
      path
      (match (overlay_filter, mix_filter) with
      | None, None -> ""
      | _ -> " matching the requested overlay/mix");
    exit 1
  end

(* Bench regression gate: exact on the simulated sections, tolerance on
   the wall-clock throughput. Exit 0 pass, 1 simulated/schema mismatch
   (behaviour change), 2 throughput regression, 3 unreadable input. *)
let bench_diff old_path new_path max_regress =
  let read path =
    match In_channel.with_open_text path In_channel.input_all with
    | contents -> (
      match Baton_obs.Json.parse contents with
      | Ok doc -> doc
      | Error msg ->
        Printf.eprintf "%s: JSON parse error: %s\n" path msg;
        exit 3)
    | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 3
  in
  let old_doc = read old_path in
  let new_doc = read new_path in
  let verdict =
    Bench_diff.compare ~max_regress_pct:max_regress ~old_doc ~new_doc
  in
  print_endline (Bench_diff.render verdict);
  exit (Bench_diff.exit_code verdict)

(* Route-cache benchmark: sweep Zipf skew and churn, replaying each
   cell's schedule with the cache off then on, and emit the
   BENCH_cache.json document. *)
let bench_cache nodes seed keys_per_node ops span out =
  let module E = Baton_experiments.Exp_cache in
  Printf.eprintf "route-cache sweep: n=%d, %d ops/cell, %d cells...\n%!" nodes
    ops
    (List.length E.thetas + List.length E.churn_rates);
  let cells =
    E.cells ~seed ~n:nodes ~keys_per_node ~ops ~range_span:span ()
  in
  List.iter
    (fun (c : E.cell) ->
      Printf.eprintf
        "  theta %.1f churn %2d%%: hit rate %.2f, reduction %.1f%%, %d \
         stale, %d wrong, %d partial\n%!"
        c.E.theta c.E.churn_pct c.E.hit_rate c.E.reduction_pct c.E.stale
        c.E.wrong_answers c.E.partial)
    cells;
  let doc =
    Baton_obs.Json.to_pretty_string
      (E.bench_json ~seed ~n:nodes ~keys_per_node ~ops ~range_span:span cells)
    ^ "\n"
  in
  match out with
  | None -> print_string doc
  | Some path ->
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc doc);
    Printf.eprintf "wrote %s\n" path

(* Scale sweep: the driver's canonical per-n configuration (read-heavy
   mix, domain widened with n, profiling on) at each requested
   population size; emits the BENCH_scale.json document. *)
let bench_scale ns seed keys_per_node ops clients out =
  let ns = List.sort_uniq compare ns in
  (match ns with
  | [] ->
    Printf.eprintf "bench-scale: empty --ns list\n";
    exit 2
  | _ -> ());
  (* Validate every point up front, before the first (long) run. *)
  List.iter
    (fun n ->
      match Driver.scale_config ~seed ~keys_per_node ~ops ~clients n with
      | (_ : Driver.config) -> ()
      | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2)
    ns;
  let t0 = Baton_obs.Profile.now_ms () in
  let reports =
    Driver.run_scale ~seed ~keys_per_node ~ops ~clients
      ~progress:(fun r -> Printf.eprintf "%s\n%!" (Driver.summary r))
      ns
  in
  Printf.eprintf "bench-scale: %d points (n=%d..%d) in %.1f s\n%!"
    (List.length ns) (List.hd ns)
    (List.nth ns (List.length ns - 1))
    ((Baton_obs.Profile.now_ms () -. t0) /. 1000.);
  let doc =
    Baton_obs.Json.to_pretty_string (Driver.scale_json reports) ^ "\n"
  in
  match out with
  | None -> print_string doc
  | Some path ->
    Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc doc);
    Printf.eprintf "wrote %s\n" path

let ops_arg =
  Arg.(value & opt int 500 & info [ "ops" ] ~docv:"K" ~doc:"Operations per phase.")

let compare_cmd =
  let doc = "Run the same workload on every registered overlay." in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const compare_overlays $ nodes_arg $ seed_arg $ ops_arg)

let key_arg =
  Arg.(
    value & opt int 123_456_789
    & info [ "key" ] ~docv:"KEY" ~doc:"Key to trace a query for.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the query's trace episode as JSONL (one hop per line plus \
           a closing analysis line) instead of prose.")

let causal_arg =
  Arg.(
    value & flag
    & info [ "causal" ]
        ~doc:
          "Trace a seeded range query under the concurrent runtime as a \
           causal tree: per-hop trace contexts, link-kind and per-level \
           breakdowns, and the critical path vs. the total message count. \
           With $(b,--json), emits deterministic JSONL (one hop per line \
           plus a closing analysis line).")

let trace_cmd =
  let doc =
    "Trace a query hop by hop — or, with $(b,--causal), as a causal tree \
     with critical-path extraction."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const trace $ nodes_arg $ seed_arg $ key_arg $ json_arg $ causal_arg)

let churn_rounds_arg =
  Arg.(
    value & opt int 50
    & info [ "churn" ] ~docv:"R" ~doc:"Join/leave rounds to include in the workload.")

let stats_snapshot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Run the workload on a network loaded from FILE instead of \
           building one. Exits 1 if FILE is missing, not a snapshot or \
           an incompatible snapshot version, saying how to write a \
           fresh one.")

let stats_cmd =
  let doc =
    "Run a mixed workload under a tracer and report p50/p95/p99/max \
     critical-path hops and message costs per top-level operation kind, \
     plus the same digest of the final per-peer message load."
  in
  Cmd.v (Cmd.info "stats" ~doc)
    Term.(
      const stats $ nodes_arg $ seed_arg $ keys_arg $ queries_arg
      $ churn_rounds_arg $ stats_snapshot_arg)

let simulate_cmd =
  let doc = "Build a network, load data, answer queries, report message costs." in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      const simulate $ nodes_arg $ seed_arg $ keys_arg $ queries_arg $ zipf_arg
      $ capacity_arg)

let rounds_arg =
  Arg.(value & opt int 200 & info [ "rounds" ] ~docv:"R" ~doc:"Churn rounds.")

let fail_arg =
  Arg.(
    value & opt int 10
    & info [ "fail-percent" ] ~docv:"P" ~doc:"Percentage of rounds that are failures.")

let churn_cmd =
  let doc = "Run a churn schedule (joins, leaves, failures) and verify recovery." in
  Cmd.v (Cmd.info "churn" ~doc)
    Term.(const churn $ nodes_arg $ seed_arg $ rounds_arg $ fail_arg)

let tree_arg =
  Arg.(value & flag & info [ "tree" ] ~doc:"Render the tree (depth-limited).")

let snapshot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:
          "Load the network from FILE if it exists, else build and save it \
           there. Exits 1 if FILE is not a snapshot or an incompatible \
           snapshot version.")

let bench_ops_arg =
  Arg.(
    value & opt int 2000
    & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per mix.")

let clients_arg =
  Arg.(
    value & opt int 32
    & info [ "clients" ] ~docv:"C" ~doc:"Closed-loop client fibers.")

let overlay_arg =
  Arg.(
    value & opt_all string []
    & info [ "overlay" ] ~docv:"NAME"
        ~doc:
          "Overlay to drive (baton, chord, multiway, skip-graph) or \
           $(b,all); repeatable — the report carries one section per \
           overlay, same seeded plan and message accounting for each. \
           Default: baton. Every overlay runs on the fiber runtime with \
           time series and profiling; monitoring, heat, \
           $(b,--route-cache) and $(b,--faults) read BATON's network and \
           apply to baton only. Unknown names exit 1 listing the valid \
           ones.")

let mix_arg =
  Arg.(
    value & opt_all string []
    & info [ "mix" ] ~docv:"MIX"
        ~doc:
          "Mix to run (read-heavy, range-heavy, churn-heavy, adversarial); \
           repeatable. Default: the first three.")

let arrival_arg =
  Arg.(
    value & opt string "closed"
    & info [ "arrival" ] ~docv:"MODEL"
        ~doc:"Arrival model: closed (clients loop) or open (Poisson).")

let rate_arg =
  Arg.(
    value & opt float 200.
    & info [ "rate" ] ~docv:"OPS/S"
        ~doc:"Aggregate arrival rate for the open-loop model.")

let think_arg =
  Arg.(
    value & opt float 0.
    & info [ "think-ms" ] ~docv:"MS"
        ~doc:"Closed-loop think time between a client's operations.")

let route_cache_arg =
  Arg.(
    value & flag
    & info [ "route-cache" ]
        ~doc:
          "Enable the adaptive route cache before the measured phase. Cache \
           probe traffic is reported apart from protocol messages.")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the JSON document to FILE instead of stdout.")

let monitor_every_arg =
  Arg.(
    value & opt float 2000.
    & info [ "monitor-every" ] ~docv:"MS"
        ~doc:
          "Health-monitor sampling period in virtual milliseconds; the \
           report's $(b,health) section carries the resulting invariant \
           time series and ok/degraded/violated events. 0 disables \
           monitoring and leaves $(b,health) null. On by default (2000).")

let series_every_arg =
  Arg.(
    value & opt float 1000.
    & info [ "series-every" ] ~docv:"MS"
        ~doc:
          "Time-series sampling period in virtual milliseconds; each tick \
           records deterministic progress counters (completed ops, message \
           deltas, fiber/queue gauges, monitor rank) into the report's \
           $(b,timeseries) section. 0 disables sampling and leaves \
           $(b,timeseries) null. On by default (1000).")

let profile_arg =
  Arg.(
    value & opt bool true
    & info [ "profile" ] ~docv:"BOOL"
        ~doc:
          "Meter the simulator process itself during the measured phase: \
           the self wall-clock of engine dispatch, bus delivery, each \
           observer callback and the engine loop (rows that add up to \
           the phase's wall), GC deltas and raw engine-event throughput \
           land in the report's $(b,profile) section. \
           Metrics-neutral but inherently non-deterministic — pass \
           $(b,--profile=false) for byte-comparable same-seed output \
           ($(b,profile) becomes null).")

let heat_flag_arg =
  Arg.(
    value & opt bool true
    & info [ "heat" ] ~docv:"BOOL"
        ~doc:
          "Install the demand-heat instrument for the measured phase: \
           per-peer serve/route/maint/aux load attribution, a top-k \
           heavy-hitter sketch over accessed keys and a key-space heat \
           histogram land in each run's $(b,load) section (rendered by \
           $(b,baton heat)). Deterministic and metrics-neutral: heat on \
           vs. off leaves every other field byte-identical. Baton-only; \
           pass $(b,--heat=false) to omit the section. On by default.")

let timeseries_out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "timeseries-out" ] ~docv:"FILE"
        ~doc:
          "Also write the sampled time series as JSONL (one overlay- and \
           mix-tagged sample object per line) to FILE — the artifact CI \
           uploads.")

let faults_arg =
  Arg.(
    value & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Inject an adversarial fault schedule into the measured phase: \
           ';'-separated $(b,partition@AT+DUR:k=K[,oneway]), \
           $(b,subtree@AT[:roots=R]) and \
           $(b,gray@AT+DUR:peers=P[,drop=D][,slow=S]) entries, times in \
           virtual milliseconds. Implies $(b,--oracle). Example: \
           'partition@2000+3000:k=2;subtree@6000;gray@1000+5000:peers=5'.")

let oracle_arg =
  Arg.(
    value & flag
    & info [ "oracle" ]
        ~doc:
          "Replay every completed operation against the consistency oracle \
           (stale reads, phantoms, false-complete ranges, broken tiling); \
           the report's $(b,oracle) section carries verdict counts and \
           trace-evidenced violation details.")

let bench_run_cmd =
  let doc =
    "Run the workload driver: seeded operation mixes execute as interleaved \
     fibers on the discrete-event runtime, on baton or any registered \
     comparison overlay ($(b,--overlay)); reports per-overlay \
     sections of virtual-time throughput, per-kind latency percentiles and \
     queue depths as JSON — plus oracle verdicts and fault-scenario \
     accounting when enabled. Deterministic: same seed, byte-identical \
     output."
  in
  Cmd.v (Cmd.info "bench-run" ~doc)
    Term.(
      const bench_run $ nodes_arg $ seed_arg $ keys_arg $ bench_ops_arg
      $ clients_arg $ overlay_arg $ mix_arg $ arrival_arg $ rate_arg
      $ think_arg $ route_cache_arg $ monitor_every_arg $ series_every_arg
      $ profile_arg $ heat_flag_arg $ faults_arg $ oracle_arg $ out_arg
      $ timeseries_out_arg)

let heat_report_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"REPORT.json"
        ~doc:"A bench-run document containing $(b,load) sections.")

let heat_overlay_arg =
  Arg.(
    value & opt (some string) None
    & info [ "overlay" ] ~docv:"NAME"
        ~doc:"Render only this overlay's runs. Default: every overlay.")

let heat_mix_arg =
  Arg.(
    value & opt (some string) None
    & info [ "mix" ] ~docv:"MIX"
        ~doc:"Render only this mix's run. Default: every run.")

let heat_cmd =
  let doc =
    "Render the demand sections of a bench-run report: an ASCII key-space \
     heatmap, the heavy-hitter top-k table and the per-class \
     (serve/route/maint/aux) attribution summary, one block per run that \
     carried heat instrumentation. Exits 1 when the document has no \
     $(b,load) sections (re-run $(b,bench-run) with $(b,--heat))."
  in
  Cmd.v (Cmd.info "heat" ~doc)
    Term.(const heat_render $ heat_report_arg $ heat_overlay_arg $ heat_mix_arg)

let bench_diff_old_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"OLD.json" ~doc:"Baseline bench document.")

let bench_diff_new_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"NEW.json" ~doc:"Candidate bench document.")

let max_regress_arg =
  Arg.(
    value & opt float 50.
    & info [ "max-regress" ] ~docv:"PCT"
        ~doc:
          "Allowed drop in each run's $(b,profile.events_per_s) relative to \
           the baseline, in percent. Simulated metrics are never subject to \
           a tolerance — they must match exactly.")

let bench_diff_cmd =
  let doc =
    "Compare two bench-run documents as a regression gate: every simulated \
     (seed-deterministic) field must match byte-exactly — any drift is a \
     behaviour change — while wall-clock event throughput inside the \
     $(b,profile) sections may regress up to $(b,--max-regress) percent. \
     Exit status: 0 pass, 1 schema/simulated mismatch, 2 throughput \
     regression, 3 unreadable input."
  in
  Cmd.v (Cmd.info "bench-diff" ~doc)
    Term.(
      const bench_diff $ bench_diff_old_arg $ bench_diff_new_arg
      $ max_regress_arg)

let cache_nodes_arg =
  Arg.(
    value & opt int 300 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Network size.")

let cache_ops_arg =
  Arg.(
    value & opt int 2400
    & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per sweep cell.")

let cache_keys_arg =
  Arg.(
    value & opt int 10
    & info [ "keys-per-node" ] ~docv:"K" ~doc:"Data volume per peer.")

let span_arg =
  Arg.(
    value & opt int 2_000_000
    & info [ "range-span" ] ~docv:"SPAN" ~doc:"Width of range queries.")

let bench_cache_cmd =
  let doc =
    "Measure the adaptive route cache: replay one seeded workload per cell \
     with the cache disabled then enabled, sweeping Zipf skew at zero churn \
     and churn at theta 0.9; every answer is oracle-checked and the JSON \
     document is byte-identical for the same seed."
  in
  Cmd.v (Cmd.info "bench-cache" ~doc)
    Term.(
      const bench_cache $ cache_nodes_arg $ seed_arg $ cache_keys_arg
      $ cache_ops_arg $ span_arg $ out_arg)

let scale_ns_arg =
  Arg.(
    value
    & opt (list int) [ 1000; 10_000; 100_000 ]
    & info [ "ns" ] ~docv:"N,N,..."
        ~doc:
          "Population sizes to sweep, comma-separated. Default \
           1000,10000,100000.")

let scale_keys_arg =
  Arg.(
    value & opt int 2
    & info [ "keys-per-node" ] ~docv:"K"
        ~doc:"Data volume per peer at each point.")

let scale_ops_arg =
  Arg.(
    value & opt int 2000
    & info [ "ops" ] ~docv:"OPS" ~doc:"Operations per point.")

let bench_scale_cmd =
  let doc =
    "Sweep the population size: at each $(b,--ns) point, build the tree \
     over a domain widened with n, bulk-load it and run the driver's \
     read-heavy measured phase profiled — raw engine throughput \
     (events/s) is reported per n. Simulated metrics are \
     seed-deterministic, so the emitted document gates with \
     $(b,bench-diff) against a committed BENCH_scale.json baseline \
     exactly like the runtime bench."
  in
  Cmd.v (Cmd.info "bench-scale" ~doc)
    Term.(
      const bench_scale $ scale_ns_arg $ seed_arg $ scale_keys_arg
      $ scale_ops_arg $ clients_arg $ out_arg)

let inspect_cmd =
  let doc = "Print the structure of a network (freshly built or from a snapshot)." in
  Cmd.v (Cmd.info "inspect" ~doc)
    Term.(const inspect $ nodes_arg $ seed_arg $ tree_arg $ snapshot_arg)

let main =
  let doc = "BATON: balanced tree overlay simulator (VLDB 2005 reproduction)" in
  Cmd.group (Cmd.info "baton" ~doc)
    [
      simulate_cmd; churn_cmd; inspect_cmd; trace_cmd; stats_cmd; compare_cmd;
      bench_run_cmd; bench_cache_cmd; bench_scale_cmd; bench_diff_cmd;
      heat_cmd;
    ]

let () = exit (Cmd.eval main)
