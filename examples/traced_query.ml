(* Traced query: watch one range query hop through the tree.

   Installs a causal tracer on a small network, runs a single range
   query, and prints the resulting trace episode — every bus hop with
   its message kind and link, indented under the hop that caused it —
   followed by the critical-path analysis as JSON.

   Run with: dune exec examples/traced_query.exe *)

module Trace = Baton_obs.Trace
module Json = Baton_obs.Json
module Rng = Baton_util.Rng

let () =
  let net = Baton.Network.build ~seed:42 60 in
  let rng = Rng.create 43 in
  for _ = 1 to 300 do
    Baton.Network.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
  done;

  (* Everything from here on is traced: the query is one episode, and
     each hop it makes records its causal parent. Observing is free —
     Metrics.total (the paper's message count) is identical with or
     without the tracer. *)
  let tracer = Trace.create () in
  Baton.Net.set_tracer net (Some tracer);

  let from = Baton.Net.random_peer net in
  let result =
    Baton.Search.range net ~from ~lo:100_000_000 ~hi:350_000_000
  in
  Baton.Net.set_tracer net None;

  Printf.printf "range [1e8, 3.5e8] from node %d: %d keys, %d hops\n\n"
    from.Baton.Node.id
    (List.length result.Baton.Search.keys)
    result.Baton.Search.hops;

  let ep = Option.get (Trace.latest tracer) in
  print_string "--- causal tree --------------------------------------\n";
  print_string (Trace.render ep);

  print_string "\n--- analysis ----------------------------------------\n";
  print_endline (Json.to_pretty_string (Trace.analysis_json (Trace.analyze ep)))
