(* Workload generators. *)

module Rng = Baton_util.Rng
module Datagen = Baton_workload.Datagen
module Querygen = Baton_workload.Querygen

let test_uniform_bounds () =
  let gen = Datagen.uniform (Rng.create 1) in
  for _ = 1 to 5_000 do
    let k = Datagen.next gen in
    Alcotest.(check bool) "in domain" true (k >= Datagen.domain_lo && k < Datagen.domain_hi)
  done

let test_zipf_bounds_and_skew () =
  let gen = Datagen.zipf ~universe:1_000 (Rng.create 2) in
  let counts = Hashtbl.create 1024 in
  let region k = k / ((Datagen.domain_hi - Datagen.domain_lo) / 1_000) in
  for _ = 1 to 20_000 do
    let k = Datagen.next gen in
    Alcotest.(check bool) "in domain" true (k >= Datagen.domain_lo && k < Datagen.domain_hi);
    let r = region k in
    Hashtbl.replace counts r (1 + Option.value ~default:0 (Hashtbl.find_opt counts r))
  done;
  let top = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
  (* With theta=1 over 1000 regions the hottest region holds ~13% of
     draws; uniform would put ~0.1% per region. *)
  Alcotest.(check bool)
    (Printf.sprintf "hot region has %d of 20000" top)
    true (top > 1_000)

let test_zipf_spreads_within_region () =
  let gen = Datagen.zipf ~universe:100 (Rng.create 3) in
  let keys = Datagen.take gen 1_000 in
  let distinct = List.sort_uniq compare (Array.to_list keys) in
  (* Hot regions are neighbourhoods, not single keys. *)
  Alcotest.(check bool) "many distinct keys" true (List.length distinct > 500)

let test_take_length () =
  let gen = Datagen.uniform (Rng.create 4) in
  Alcotest.(check int) "take n" 17 (Array.length (Datagen.take gen 17))

let test_exact_targets_from_keys () =
  let rng = Rng.create 5 in
  let keys = [| 10; 20; 30 |] in
  let qs = Querygen.exact_targets rng ~keys 100 in
  Array.iter
    (fun q -> Alcotest.(check bool) "drawn from keys" true (Array.exists (( = ) q) keys))
    qs;
  Alcotest.check_raises "no keys" (Invalid_argument "Querygen.exact_targets: no keys")
    (fun () -> ignore (Querygen.exact_targets rng ~keys:[||] 1))

let test_ranges_span () =
  let rng = Rng.create 6 in
  let rs = Querygen.ranges rng ~span:100 ~lo:0 ~hi:10_000 50 in
  Array.iter
    (fun { Querygen.lo; hi } ->
      Alcotest.(check int) "width" 100 (hi - lo);
      Alcotest.(check bool) "start in domain" true (lo >= 0 && lo <= 10_000))
    rs

let suite =
  [
    Alcotest.test_case "uniform bounds" `Quick test_uniform_bounds;
    Alcotest.test_case "zipf bounds/skew" `Quick test_zipf_bounds_and_skew;
    Alcotest.test_case "zipf spreads in region" `Quick test_zipf_spreads_within_region;
    Alcotest.test_case "take length" `Quick test_take_length;
    Alcotest.test_case "exact targets" `Quick test_exact_targets_from_keys;
    Alcotest.test_case "ranges span" `Quick test_ranges_span;
  ]
