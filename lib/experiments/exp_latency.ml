module Rng = Baton_util.Rng
module Stats = Baton_util.Stats
module Latency = Baton_sim.Latency
module Querygen = Baton_workload.Querygen
module Runtime = Baton_runtime.Runtime

(* Each operation runs alone on a fresh runtime and without fan-out, so
   its latency is the serial sum of its hop delays. *)
let time rt f = snd (Common.time_alone rt f)

let summarize label samples =
  [
    label;
    Table.cell_float (Stats.mean samples);
    Table.cell_float (Stats.median samples);
    Table.cell_float (Stats.percentile samples 95.);
    Table.cell_float (Stats.percentile samples 99.);
  ]

let run (p : Params.t) =
  let n = List.hd p.Params.sizes in
  let queries = p.Params.queries in
  let lat = Latency.create ~seed:(p.Params.seed + 121) () in
  (* BATON *)
  let net, keys =
    Common.build_baton ~seed:(p.Params.seed + 123) ~n
      ~keys_per_node:p.Params.keys_per_node ()
  in
  let rng = Rng.create (p.Params.seed + 125) in
  let baton_samples =
    Array.map
      (fun k ->
        time (Runtime.create ~latency:lat net) (fun () ->
            Baton.Search.lookup net ~from:(Baton.Net.random_peer net) k))
      (Querygen.exact_targets rng ~keys queries)
  in
  (* BATON range queries: latency for a multi-peer answer. *)
  let range_samples =
    Array.map
      (fun { Querygen.lo; hi } ->
        time (Runtime.create ~latency:lat net) (fun () ->
            Baton.Search.range net ~from:(Baton.Net.random_peer net) ~lo ~hi))
      (Querygen.ranges rng ~span:p.Params.range_span
         ~lo:Baton_workload.Datagen.domain_lo
         ~hi:(Baton_workload.Datagen.domain_hi - 1)
         queries)
  in
  (* Chord *)
  let chord, ckeys =
    Common.build_chord ~seed:(p.Params.seed + 123) ~n
      ~keys_per_node:p.Params.keys_per_node
  in
  let crng = Rng.create (p.Params.seed + 125) in
  let chord_samples =
    Array.map
      (fun k ->
        time (Runtime.of_bus ~latency:lat (Chord.bus chord)) (fun () ->
            Chord.lookup chord k))
      (Querygen.exact_targets crng ~keys:ckeys queries)
  in
  Table.make ~id:"latency"
    ~title:"End-to-end query latency under a heavy-tailed link model (ms)"
    ~header:[ "operation"; "mean"; "p50"; "p95"; "p99" ]
    ~notes:
      [
        Printf.sprintf
          "N = %d peers; per-link latency = 20ms + Exp(60ms), fixed per pair."
          n;
      ]
    [
      summarize "baton exact" baton_samples;
      summarize "baton range" range_samples;
      summarize "chord exact" chord_samples;
    ]
