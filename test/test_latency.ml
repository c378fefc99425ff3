(* Per-link latency model. *)

module Latency = Baton_sim.Latency
module Bus = Baton_sim.Bus
module Runtime = Baton_runtime.Runtime

let test_deterministic_per_pair () =
  let l = Latency.create ~seed:3 () in
  let a = Latency.of_pair l ~src:1 ~dst:2 in
  Alcotest.(check bool) "same pair same latency" true
    (a = Latency.of_pair l ~src:1 ~dst:2);
  let fresh = Latency.create ~seed:3 () in
  Alcotest.(check bool) "pure function of seed" true
    (a = Latency.of_pair fresh ~src:1 ~dst:2)

let test_asymmetric_pairs () =
  let l = Latency.create ~seed:4 () in
  Alcotest.(check bool) "directions differ in general" true
    (Latency.of_pair l ~src:1 ~dst:2 <> Latency.of_pair l ~src:2 ~dst:1)

let test_bounds () =
  let l = Latency.create ~seed:5 ~base_ms:10. ~jitter_ms:5. () in
  for src = 0 to 20 do
    for dst = 0 to 20 do
      if src <> dst then begin
        let ms = Latency.of_pair l ~src ~dst in
        Alcotest.(check bool) "above base" true (ms >= 10.);
        Alcotest.(check bool) "finite tail" true (ms < 10. +. (5. *. 40.))
      end
    done
  done;
  Alcotest.check_raises "negative" (Invalid_argument "Latency.create: negative latency")
    (fun () -> ignore (Latency.create ~base_ms:(-1.) ()))

(* The runtime is the one hop clock: a fiber's chain of sends over a
   bare bus finishes at the sum of the per-pair latencies of its
   hops. *)
let test_runtime_sums_hops () =
  let l = Latency.create ~seed:6 () in
  let bus = Bus.create () in
  let rt = Runtime.of_bus ~latency:l bus in
  let result = ref None in
  Runtime.spawn rt
    (fun () ->
      Bus.send bus ~src:1 ~dst:2 ~kind:"x";
      Bus.send bus ~src:2 ~dst:3 ~kind:"x";
      "done")
    ~on_done:(fun r -> result := Some r);
  Runtime.run rt;
  Alcotest.(check bool) "result passed through" true
    (!result = Some (Ok "done"));
  let expect = Latency.of_pair l ~src:1 ~dst:2 +. Latency.of_pair l ~src:2 ~dst:3 in
  Alcotest.(check (float 0.)) "sum of hops" expect (Runtime.now rt)

let suite =
  [
    Alcotest.test_case "deterministic per pair" `Quick test_deterministic_per_pair;
    Alcotest.test_case "asymmetric" `Quick test_asymmetric_pairs;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "runtime sums hops" `Quick test_runtime_sums_hops;
  ]
