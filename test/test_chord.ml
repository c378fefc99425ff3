(* Chord baseline: ring arithmetic, lookups, membership maintenance. *)

module Rng = Baton_util.Rng

let test_id_intervals () =
  Alcotest.(check bool) "plain open" true (Chord.Id.in_open 5 ~lo:1 ~hi:9);
  Alcotest.(check bool) "excludes endpoints" false (Chord.Id.in_open 1 ~lo:1 ~hi:9);
  Alcotest.(check bool) "wrapping open" true (Chord.Id.in_open 0 ~lo:100 ~hi:5);
  Alcotest.(check bool) "wrapping miss" false (Chord.Id.in_open 50 ~lo:100 ~hi:5);
  Alcotest.(check bool) "open-closed includes hi" true (Chord.Id.in_open_closed 9 ~lo:1 ~hi:9);
  Alcotest.(check bool) "lo = hi is full ring" true (Chord.Id.in_open_closed 3 ~lo:7 ~hi:7)

let test_hash_determinism_and_range () =
  for v = 0 to 100 do
    let h = Chord.Id.of_key v in
    Alcotest.(check int) "deterministic" h (Chord.Id.of_key v);
    Alcotest.(check bool) "in ring" true (h >= 0 && h < Chord.Id.ring_size)
  done;
  Alcotest.(check bool) "peer hash differs from key hash" true
    (Chord.Id.of_peer 42 <> Chord.Id.of_key 42)

let test_add_pow_wraps () =
  let near_top = Chord.Id.ring_size - 1 in
  Alcotest.(check int) "wraps" 0 (Chord.Id.add_pow near_top 0)

let test_single_node_ring () =
  let t = Chord.create ~seed:1 () in
  ignore (Chord.join t);
  Chord.check t;
  ignore (Chord.insert t 123);
  Alcotest.(check bool) "finds own key" true (fst (Chord.lookup t 123))

let test_growth_invariants () =
  let t = Chord.create ~seed:2 () in
  for i = 1 to 100 do
    ignore (Chord.join t);
    if i mod 20 = 0 then Chord.check t
  done;
  Alcotest.(check int) "size" 100 (Chord.size t)

let test_lookup_correctness () =
  let t = Chord.create ~seed:3 () in
  for _ = 1 to 80 do
    ignore (Chord.join t)
  done;
  let rng = Rng.create 5 in
  let keys = Array.init 300 (fun _ -> Rng.int_in_range rng ~lo:1 ~hi:999_999_999) in
  Array.iter (fun k -> ignore (Chord.insert t k)) keys;
  Chord.check t;
  Array.iter
    (fun k -> Alcotest.(check bool) "found" true (fst (Chord.lookup t k)))
    keys

let test_lookup_hops_logarithmic () =
  let t = Chord.create ~seed:4 () in
  for _ = 1 to 256 do
    ignore (Chord.join t)
  done;
  let rng = Rng.create 7 in
  let hops =
    Array.init 200 (fun _ ->
        let k = Rng.int_in_range rng ~lo:1 ~hi:999_999_999 in
        float_of_int (snd (Chord.lookup t k)))
  in
  let mean = Baton_util.Stats.mean hops in
  (* Expected about (1/2) log2 N = 4; allow generous slack. *)
  Alcotest.(check bool) (Printf.sprintf "mean %.2f in [2, 8]" mean) true
    (mean > 2. && mean < 8.)

let test_join_update_cost_is_log_squared_scale () =
  let t = Chord.create ~seed:5 () in
  for _ = 1 to 200 do
    ignore (Chord.join t)
  done;
  let s = Chord.join t in
  (* Finger construction and update_others each walk the m = 24 finger
     slots with O(log N) lookups: the cost sits well above BATON's
     ~6 log N ~ 46 and below m * (4 + log2 N). *)
  let upper =
    float_of_int Chord.Id.bits *. (4. +. (log (float_of_int (Chord.size t)) /. log 2.))
  in
  Alcotest.(check bool)
    (Printf.sprintf "update msgs %d (upper %.0f)" s.Chord.update_msgs upper)
    true
    (s.Chord.update_msgs > 50 && float_of_int s.Chord.update_msgs < upper)

let test_leave_keeps_ring_and_data () =
  let t = Chord.create ~seed:6 () in
  for _ = 1 to 60 do
    ignore (Chord.join t)
  done;
  let rng = Rng.create 9 in
  let keys = Array.init 200 (fun _ -> Rng.int_in_range rng ~lo:1 ~hi:999_999_999) in
  Array.iter (fun k -> ignore (Chord.insert t k)) keys;
  for _ = 1 to 40 do
    let ids = Chord.peer_ids t in
    ignore (Chord.leave t (Rng.pick rng ids))
  done;
  Chord.check t;
  Alcotest.(check int) "size" 20 (Chord.size t);
  Array.iter
    (fun k -> Alcotest.(check bool) "data survived" true (fst (Chord.lookup t k)))
    keys

let test_delete () =
  let t = Chord.create ~seed:7 () in
  for _ = 1 to 20 do
    ignore (Chord.join t)
  done;
  ignore (Chord.insert t 999);
  ignore (Chord.delete t 999);
  Alcotest.(check bool) "deleted" false (fst (Chord.lookup t 999))

let test_range_scan_cost_is_linear () =
  let t = Chord.create ~seed:8 () in
  for _ = 1 to 30 do
    ignore (Chord.join t)
  done;
  Alcotest.(check int) "must visit every peer" 30 (Chord.range_scan_cost t)

let churn_prop =
  let open QCheck2 in
  Test.make ~name:"chord invariants under random churn" ~count:15
    Gen.(pair (int_range 5 40) (int_range 0 1000))
    (fun (n, salt) ->
      let t = Chord.create ~seed:(3000 + salt) () in
      for _ = 1 to n do
        ignore (Chord.join t)
      done;
      let rng = Rng.create salt in
      for _ = 1 to n / 2 do
        let ids = Chord.peer_ids t in
        ignore (Chord.leave t (Rng.pick rng ids));
        ignore (Chord.join t)
      done;
      Chord.check t;
      true)

let suite =
  [
    Alcotest.test_case "id intervals" `Quick test_id_intervals;
    Alcotest.test_case "hash determinism" `Quick test_hash_determinism_and_range;
    Alcotest.test_case "add_pow wraps" `Quick test_add_pow_wraps;
    Alcotest.test_case "single node ring" `Quick test_single_node_ring;
    Alcotest.test_case "growth invariants" `Quick test_growth_invariants;
    Alcotest.test_case "lookup correctness" `Quick test_lookup_correctness;
    Alcotest.test_case "lookup hops log" `Quick test_lookup_hops_logarithmic;
    Alcotest.test_case "join cost log^2 scale" `Quick test_join_update_cost_is_log_squared_scale;
    Alcotest.test_case "leave keeps ring/data" `Quick test_leave_keeps_ring_and_data;
    Alcotest.test_case "delete" `Quick test_delete;
    Alcotest.test_case "range scan linear" `Quick test_range_scan_cost_is_linear;
    QCheck_alcotest.to_alcotest churn_prop;
  ]
