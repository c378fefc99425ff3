(* Benchmark harness.

   Two parts, matching the paper's evaluation (Section V):

   1. Figure regeneration - one table per panel of Figure 8, produced
      by the experiment harness at the "quick" scale (the full paper
      sweep is `dune exec bin/experiments.exe -- --full`). The metric
      is the paper's: the number of passing messages.

   2. Bechamel timing micro-benchmarks of the core operations, because
      a library release should also tell users what the operations cost
      in wall-clock time on a local simulator. *)

module P = Baton_experiments.Params
module Table = Baton_experiments.Table
module Runner = Baton_experiments.Runner
module Rng = Baton_util.Rng

let run_figures () =
  print_endline "=== Paper figure regeneration (message counts, quick scale) ===";
  print_endline "";
  ignore
    (Runner.run_all
       ~on_table:(fun t ->
         print_string (Table.render t);
         print_newline ())
       P.quick)

(* --- Bechamel micro-benchmarks -------------------------------------- *)

let baton_net = lazy (Baton.Network.build ~seed:101 1000)

let chord_net =
  lazy
    (let t = Chord.create ~seed:102 () in
     for _ = 1 to 1000 do
       ignore (Chord.join t)
     done;
     t)

let multiway_net =
  lazy
    (let t =
       Multiway.create ~seed:103 ~domain_lo:1 ~domain_hi:1_000_000_000 ()
     in
     for _ = 1 to 1000 do
       ignore (Multiway.join t)
     done;
     t)

let skip_graph_net =
  lazy
    (let t =
       Skip_graph.create ~seed:104 ~domain_lo:1 ~domain_hi:1_000_000_000 ()
     in
     for _ = 1 to 1000 do
       ignore (Skip_graph.join t)
     done;
     t)

let bench_rng = Rng.create 999

let tests =
  let open Bechamel in
  let key () = Rng.int_in_range bench_rng ~lo:1 ~hi:999_999_999 in
  [
    Test.make ~name:"baton/exact-query (fig8d op)"
      (Staged.stage (fun () ->
           let net = Lazy.force baton_net in
           ignore (Baton.Search.lookup net ~from:(Baton.Net.random_peer net) (key ()))));
    Test.make ~name:"baton/range-query (fig8e op)"
      (Staged.stage (fun () ->
           let net = Lazy.force baton_net in
           let lo = key () in
           ignore
             (Baton.Search.range net ~from:(Baton.Net.random_peer net) ~lo
                ~hi:(lo + 1_000_000))));
    Test.make ~name:"baton/insert (fig8c op)"
      (Staged.stage (fun () ->
           let net = Lazy.force baton_net in
           ignore (Baton.Update.insert net ~from:(Baton.Net.random_peer net) (key ()))));
    Test.make ~name:"baton/join+leave (fig8a-b op)"
      (Staged.stage (fun () ->
           let net = Lazy.force baton_net in
           let s = Baton.Join.join net ~via:(Baton.Net.random_peer net) in
           ignore (Baton.Leave.leave net (Baton.Net.peer net s.Baton.Join.new_peer))));
    Test.make ~name:"chord/lookup"
      (Staged.stage (fun () -> ignore (Chord.lookup (Lazy.force chord_net) (key ()))));
    Test.make ~name:"mtree/lookup"
      (Staged.stage (fun () -> ignore (Multiway.lookup (Lazy.force multiway_net) (key ()))));
    Test.make ~name:"skip-graph/lookup"
      (Staged.stage (fun () ->
           ignore (Skip_graph.lookup (Lazy.force skip_graph_net) (key ()))));
    Test.make ~name:"skip-graph/range-query"
      (Staged.stage (fun () ->
           let lo = key () in
           ignore
             (Skip_graph.range_query (Lazy.force skip_graph_net) ~lo
                ~hi:(lo + 1_000_000))));
  ]

let run_timings () =
  let open Bechamel in
  print_endline "=== Bechamel wall-clock micro-benchmarks (1000-peer networks) ===";
  print_endline "";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"ops" ~fmt:"%s %s" tests in
  (* Build the networks up front, so no test's first sample pays for
     a 1000-peer construction. *)
  ignore (Lazy.force baton_net);
  ignore (Lazy.force chord_net);
  ignore (Lazy.force multiway_net);
  ignore (Lazy.force skip_graph_net);
  let raw = Benchmark.all cfg instances grouped in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw) instances
  in
  let results = Analyze.merge ols instances results in
  (match Hashtbl.find_opt results (Measure.label Toolkit.Instance.monotonic_clock) with
  | None -> print_endline "no clock results"
  | Some by_name ->
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) by_name []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.iter (fun (name, ols) ->
           match Analyze.OLS.estimates ols with
           | Some [ ns ] -> Printf.printf "%-40s %12.0f ns/op\n" name ns
           | Some _ | None -> Printf.printf "%-40s %12s\n" name "n/a"));
  print_newline ()

let () =
  let timings_only = Array.exists (( = ) "--timings-only") Sys.argv in
  let figures_only = Array.exists (( = ) "--figures-only") Sys.argv in
  if not timings_only then run_figures ();
  if not figures_only then run_timings ()
