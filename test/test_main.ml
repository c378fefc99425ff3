(* Aggregated alcotest entry point: one suite per module family. *)

let () =
  Alcotest.run "baton"
    [
      ("util.rng", Test_rng.suite);
      ("util.zipf", Test_zipf.suite);
      ("util.stats", Test_stats.suite);
      ("util.dyn_array", Test_dyn_array.suite);
      ("util.ordered_multiset", Test_ordered_multiset.suite);
      ("util.sorted_store", Test_sorted_store.suite);
      ("util.histogram", Test_histogram.suite);
      ("sim", Test_sim.suite);
      ("sim.latency", Test_latency.suite);
      ("obs", Test_obs.suite);
      ("obs.trace", Test_trace.suite);
      ("obs.heat", Test_heat.suite);
      ("baton.position", Test_position.suite);
      ("baton.range", Test_range.suite);
      ("baton.routing_table", Test_routing_table.suite);
      ("baton.node", Test_node.suite);
      ("baton.net", Test_net.suite);
      ("baton.facade", Test_facade.suite);
      ("baton.snapshot", Test_snapshot.suite);
      ("baton.wiring", Test_wiring.suite);
      ("baton.join", Test_baton_join.suite);
      ("baton.leave", Test_baton_leave.suite);
      ("baton.search", Test_baton_search.suite);
      ("baton.route_cache", Test_route_cache.suite);
      ("baton.update", Test_baton_update.suite);
      ("baton.failure", Test_baton_failure.suite);
      ("baton.restructure", Test_baton_restructure.suite);
      ("baton.balance", Test_baton_balance.suite);
      ("baton.dynamics", Test_baton_dynamics.suite);
      ("baton.fault_tolerance", Test_fault_tolerance.suite);
      ("baton.resilience", Test_resilience.suite);
      ("baton.replication", Test_replication.suite);
      ("baton.viz", Test_viz.suite);
      ("baton.monitor", Test_monitor.suite);
      ("chord", Test_chord.suite);
      ("multiway", Test_multiway.suite);
      ("skip_graph", Test_skip_graph.suite);
      ("overlay", Test_overlay.suite);
      ("workload", Test_workload.suite);
      ("runtime", Test_runtime.suite);
      ("report_check", Test_report_check.suite);
      ("profiling", Test_profiling.suite);
      ("adversarial", Test_adversarial.suite);
      ("experiments", Test_experiments.suite);
      ("edge_cases", Test_edge_cases.suite);
      ("properties", Test_props.suite);
    ]
