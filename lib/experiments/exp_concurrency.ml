(* Concurrency experiment: what the discrete-event runtime adds on top
   of the paper's message-count metric.

   Table 1 (fan-out): the same range queries, over the same network
   with the same per-pair latencies, timed two ways on the runtime —
   alone and without fan-out (the serial hop-sum: every message is
   charged in sequence) and with the two directional sweeps forked into
   parallel fibers via [Search.range ~par] (the critical path). The
   message multisets are identical; only the clock differs, so the gap
   between the two rows is exactly the parallelism a range query's
   fan-out exposes.

   Table 2 (throughput): the workload driver under the three canonical
   mixes — closed-loop clients hammering the tree while (in the
   churn-heavy mix) joins and leaves interleave with queries at
   message granularity. *)

module Rng = Baton_util.Rng
module Stats = Baton_util.Stats
module Latency = Baton_sim.Latency
module Metrics = Baton_sim.Metrics
module Timing = Baton_obs.Timing
module Querygen = Baton_workload.Querygen
module Runtime = Baton_runtime.Runtime
module Driver = Baton_runtime.Driver

let summarize label samples msgs =
  [
    label;
    Table.cell_float (Stats.mean samples);
    Table.cell_float (Stats.median samples);
    Table.cell_float (Stats.percentile samples 95.);
    Table.cell_float (Stats.percentile samples 99.);
    Table.cell_int msgs;
  ]

let fanout (p : Params.t) =
  let n = List.hd p.Params.sizes in
  let net, _keys =
    Common.build_baton ~seed:(p.Params.seed + 123) ~n
      ~keys_per_node:p.Params.keys_per_node ()
  in
  let lat = Latency.create ~seed:(p.Params.seed + 121) () in
  let rng = Rng.create (p.Params.seed + 127) in
  (* Size the span relative to N so each query sweeps ~16 peers —
     parallelism only exists when the sweeps have peers to visit. *)
  let span =
    (Baton_workload.Datagen.domain_hi - Baton_workload.Datagen.domain_lo)
    / max 1 n * 16
  in
  let queries =
    Querygen.ranges rng ~span ~lo:Baton_workload.Datagen.domain_lo
      ~hi:(Baton_workload.Datagen.domain_hi - 1)
      p.Params.queries
  in
  (* Fix each query's origin up front so both timings replay the exact
     same walks. *)
  let froms = Array.map (fun _ -> Baton.Net.random_peer net) queries in
  let metrics = Baton.Net.metrics net in
  (* Serial: each query alone on a fresh runtime without [~par], so its
     latency is the serial sum of the hop chain. *)
  let cp = Metrics.checkpoint metrics in
  let serial =
    Array.mapi
      (fun i { Querygen.lo; hi } ->
        snd
          (Common.time_alone (Runtime.create ~latency:lat net) (fun () ->
               Baton.Search.range net ~from:froms.(i) ~lo ~hi)))
      queries
  in
  let serial_msgs = Metrics.since metrics cp in
  (* Concurrent: one fiber per query, run to completion before the
     next starts, so each sample is that query's critical path with no
     cross-query queueing. *)
  let rt = Runtime.create ~latency:lat net in
  let par l r = Runtime.both l r in
  let cp = Metrics.checkpoint metrics in
  let critical = Array.make (Array.length queries) 0. in
  Array.iteri
    (fun i { Querygen.lo; hi } ->
      let started = Runtime.now rt in
      Runtime.spawn rt
        (fun () ->
          ignore
            (Baton.Search.range ~par net ~from:froms.(i) ~lo ~hi
              : Baton.Search.result))
        ~on_done:(fun _ -> critical.(i) <- Runtime.now rt -. started);
      Runtime.run rt)
    queries;
  let par_msgs = Metrics.since metrics cp in
  let speedup =
    let m = Stats.mean critical in
    if m > 0. then Stats.mean serial /. m else 1.
  in
  Table.make ~id:"concurrency-fanout"
    ~title:"Range-query latency: serial hop-sum vs concurrent critical path (ms)"
    ~header:[ "execution"; "mean"; "p50"; "p95"; "p99"; "messages" ]
    ~notes:
      [
        Printf.sprintf
          "N = %d peers, %d range queries each spanning ~16 peers; \
           identical queries, origins and per-pair latencies in both rows."
          n p.Params.queries;
        Printf.sprintf
          "Mean critical-path speedup %.2fx from fanning the two \
           directional sweeps out in parallel; message counts are the \
           paper's metric and stay equal."
          speedup;
      ]
    [
      summarize "serial hop-sum" serial serial_msgs;
      summarize "critical path" critical par_msgs;
    ]

let throughput (p : Params.t) =
  let n = List.hd p.Params.sizes in
  let ops = max 100 p.Params.queries in
  let reports =
    List.map
      (fun mix ->
        Driver.run
          (Driver.config ~seed:p.Params.seed
             ~keys_per_node:p.Params.keys_per_node ~ops ~n ~mix ()))
      Driver.mixes
  in
  let pct d q =
    if Timing.count d = 0 then "-"
    else Table.cell_float (Timing.percentile d q)
  in
  let row (r : Driver.report) =
    let exact = List.assoc "exact" r.Driver.latencies in
    let range = List.assoc "range" r.Driver.latencies in
    [
      r.Driver.cfg.Driver.mix.Driver.mix_name;
      Table.cell_int r.Driver.completed;
      Table.cell_int r.Driver.failed;
      Table.cell_float r.Driver.throughput_ops_s;
      pct exact 50.;
      pct exact 99.;
      pct range 50.;
      pct range 99.;
      Table.cell_int r.Driver.depth_max;
    ]
  in
  Table.make ~id:"concurrency-throughput"
    ~title:"Workload driver: closed-loop throughput under canonical mixes"
    ~header:
      [
        "mix"; "ok"; "failed"; "ops/s"; "exact p50"; "exact p99";
        "range p50"; "range p99"; "depth max";
      ]
    ~notes:
      [
        Printf.sprintf
          "N = %d peers, %d ops per mix, 32 closed-loop clients, Zipf \
           theta 1.0; ops/s is virtual-time throughput; depth max is the \
           busiest peer's in-flight high-water mark."
          n ops;
      ]
    (List.map row reports)

let run p = [ fanout p; throughput p ]
