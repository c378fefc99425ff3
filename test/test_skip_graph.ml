(* The Skip Graph overlay: structural units, crash recovery, and
   qcheck properties tying search cost, level-0 order and range answers
   to the Aspnes & Shah guarantees. *)

module SG = Skip_graph
module Rng = Baton_util.Rng
module Sorted_store = Baton_util.Sorted_store
module Oracle = Baton_obs.Oracle
module Driver = Baton_runtime.Driver

let domain_lo = 1
let domain_hi = 1_000_000_000

let build ?(seed = 42) n =
  let g = SG.create ~seed ~domain_lo ~domain_hi () in
  for _ = 1 to n do
    ignore (SG.join g : SG.join_stats)
  done;
  g

let random_keys rng count =
  List.init count (fun _ -> Rng.int_in_range rng ~lo:domain_lo ~hi:(domain_hi - 1))

(* --- Units --------------------------------------------------------- *)

let test_build_and_audit () =
  let g = build 64 in
  Alcotest.(check int) "size" 64 (SG.size g);
  Alcotest.(check bool) "has upper levels" true (SG.levels g >= 2);
  Alcotest.(check bool) "levels bounded" true (SG.levels g <= SG.max_levels);
  Alcotest.(check int) "peer orders agree on population" (SG.size g)
    (Array.length (SG.peer_ids_by_key g));
  SG.check g

let test_join_pays_messages () =
  let g = build 20 in
  let st = SG.join g in
  Alcotest.(check bool) "join searched" true (st.SG.search_msgs > 0);
  Alcotest.(check bool) "join spliced" true (st.SG.update_msgs > 0);
  SG.check g

let test_data_roundtrip () =
  let g = build 40 in
  let keys = random_keys (Rng.create 5) 200 in
  List.iter (fun k -> ignore (SG.insert g k : int)) keys;
  let before = Baton_sim.Metrics.total (SG.metrics g) in
  List.iter
    (fun k ->
      let found, hops = SG.lookup g k in
      Alcotest.(check bool) "found" true found;
      (* Zero hops is legal — the random start peer may own the key. *)
      Alcotest.(check bool) "hops non-negative" true (hops >= 0))
    keys;
  Alcotest.(check bool) "the batch paid messages" true
    (Baton_sim.Metrics.total (SG.metrics g) > before);
  List.iter
    (fun k ->
      let deleted, _ = SG.delete g k in
      Alcotest.(check bool) "deleted" true deleted)
    keys;
  let found, _ = SG.lookup g (List.hd keys) in
  Alcotest.(check bool) "gone" false found;
  SG.check g

let test_range_matches_filter () =
  let g = build 48 in
  let keys = random_keys (Rng.create 9) 400 in
  ignore (SG.bulk_insert g keys : int);
  let lo = 250_000_000 and hi = 600_000_000 in
  let expect =
    List.sort_uniq compare (List.filter (fun k -> k >= lo && k <= hi) keys)
  in
  let got, hops = SG.range_query g ~lo ~hi in
  Alcotest.(check (list int)) "range = filtered keys" expect got;
  Alcotest.(check bool) "range paid hops" true (hops > 0);
  SG.check g

let test_bulk_insert_places_all () =
  let g = build 32 in
  let keys = random_keys (Rng.create 13) 300 in
  ignore (SG.bulk_insert g keys : int);
  List.iter
    (fun k ->
      Alcotest.(check bool) "bulk key found" true (fst (SG.lookup g k)))
    keys;
  SG.check g

let test_leave_hands_data_over () =
  let g = build 24 in
  let keys = random_keys (Rng.create 17) 150 in
  ignore (SG.bulk_insert g keys : int);
  let rng = Rng.create 19 in
  for _ = 1 to 12 do
    ignore (SG.leave g (Rng.pick rng (SG.peer_ids g)) : SG.leave_stats)
  done;
  Alcotest.(check int) "peers departed" 12 (24 - SG.size g);
  List.iter
    (fun k ->
      Alcotest.(check bool) "key survived departures" true
        (fst (SG.lookup g k)))
    keys;
  SG.check g

let test_crash_lazy_repair () =
  let g = build 40 in
  let keys = random_keys (Rng.create 23) 200 in
  ignore (SG.bulk_insert g keys : int);
  let rng = Rng.create 29 in
  let lost = ref [] in
  for _ = 1 to 8 do
    let victim = Rng.pick rng (SG.peer_ids g) in
    lost := SG.crash g victim @ !lost
  done;
  Alcotest.(check int) "population shrank" 32 (SG.size g);
  (* Keys on corpses are gone; every other key stays reachable while
     routing splices the corpses out. *)
  List.iter
    (fun k ->
      let found, _ = SG.lookup g k in
      Alcotest.(check bool)
        (Printf.sprintf "key %d %s" k
           (if List.mem k !lost then "lost with its peer" else "survives"))
        (not (List.mem k !lost))
        found)
    keys;
  SG.check g;
  (* A fresh join after the carnage still builds a sound structure. *)
  ignore (SG.join g : SG.join_stats);
  SG.check g

let test_determinism () =
  let script seed =
    let g = build ~seed 30 in
    let rng = Rng.create 31 in
    ignore (SG.bulk_insert g (random_keys rng 100) : int);
    for _ = 1 to 50 do
      ignore (SG.lookup g (Rng.int_in_range rng ~lo:domain_lo ~hi:domain_hi))
    done;
    ignore (SG.crash g (Rng.pick rng (SG.peer_ids g)) : int list);
    for _ = 1 to 20 do
      ignore (SG.lookup g (Rng.int_in_range rng ~lo:domain_lo ~hi:domain_hi))
    done;
    ( Baton_sim.Metrics.total (SG.metrics g),
      SG.peer_ids g,
      SG.peer_ids_by_key g )
  in
  let m1, ids1, byk1 = script 71 and m2, ids2, byk2 = script 71 in
  Alcotest.(check int) "same seed, same messages" m1 m2;
  Alcotest.(check (array int)) "same peers" ids1 ids2;
  Alcotest.(check (array int)) "same key order" byk1 byk2;
  let m3, _, _ = script 72 in
  Alcotest.(check bool) "different seed differs somewhere" true (m1 <> m3)

(* The overlay-matrix adversarial run: a partition, gray peers and a
   correlated crash burst, scheduled through [Driver.run], must fire
   and leave zero oracle violations — failures are visible, never wrong
   answers — and a clean structural check at the end of the run. *)
let test_adversarial_zero_violations () =
  let fault_schedule =
    match
      Baton_sim.Partition.parse
        "partition@500+1200:k=2;subtree@2200;gray@300+2500:peers=4"
    with
    | Ok s -> s
    | Error e -> Alcotest.fail e
  in
  let r =
    Driver.run
      (Driver.config ~overlay:"skip-graph" ~seed:3 ~keys_per_node:3 ~ops:120
         ~fault_schedule ~oracle:true ~n:60 ~mix:Driver.adversarial ())
  in
  let o = Option.get r.Driver.oracle in
  Alcotest.(check int)
    "all ops accounted" 120
    (r.Driver.completed + r.Driver.failed);
  Alcotest.(check bool) "most ops completed" true (r.Driver.completed > 60);
  Alcotest.(check bool) "oracle judged completions" true (Oracle.checked o > 0);
  Alcotest.(check int) "zero violations" 0 (Oracle.violation_count o);
  Alcotest.(check bool) "traffic counted" true (r.Driver.messages > 0);
  Alcotest.(check bool) "the partition bit" true (r.Driver.partition_timeouts > 0);
  Alcotest.(check bool) "an episode fired" true (r.Driver.scenario <> []);
  Alcotest.(check bool) "the crash lost keys" true (Oracle.lost_keys o > 0)

(* --- Properties ---------------------------------------------------- *)

(* Random churn scripts: every committed key stays queryable unless its
   holder crashed, and the full structural audit (level-0 sorted and
   gap-free, prefix-class lists, heights, placement) holds at the end.
   [check] resolving links through corpses is exactly the lazy-repair
   invariant. *)
type op = Op_join | Op_leave | Op_crash | Op_insert of int | Op_lookup

let gen_op =
  let open QCheck2.Gen in
  frequency
    [
      (3, return Op_join);
      (2, return Op_leave);
      (1, return Op_crash);
      (5, map (fun k -> Op_insert k) (int_range domain_lo (domain_hi - 1)));
      (4, return Op_lookup);
    ]

let print_op = function
  | Op_join -> "join"
  | Op_leave -> "leave"
  | Op_crash -> "crash"
  | Op_insert k -> Printf.sprintf "insert %d" k
  | Op_lookup -> "lookup"

let run_script ~salt ops =
  let g = build ~seed:(9000 + salt) 12 in
  let rng = Rng.create salt in
  let live = ref [] in
  List.iter
    (fun op ->
      match op with
      | Op_join -> ignore (SG.join g : SG.join_stats)
      | Op_leave ->
        if SG.size g > 1 then
          ignore (SG.leave g (Rng.pick rng (SG.peer_ids g)) : SG.leave_stats)
      | Op_crash ->
        if SG.size g > 2 then begin
          let lost = SG.crash g (Rng.pick rng (SG.peer_ids g)) in
          live := List.filter (fun k -> not (List.mem k lost)) !live
        end
      | Op_insert k ->
        ignore (SG.insert g k : int);
        live := k :: !live
      | Op_lookup -> (
        match !live with
        | [] -> ()
        | keys ->
          let k = List.nth keys (Rng.int rng (List.length keys)) in
          if not (fst (SG.lookup g k)) then
            failwith ("lookup lost key " ^ string_of_int k)))
    ops;
  SG.check g;
  true

(* The churn script that left a lone peer at height 0 with fresh
   level-0 links: leaves shrink the graph to one peer, whose height
   drops to 0, and a later join links it at level 0 without a shared
   level-1 prefix (QCHECK_SEED=780952420, shrunk). *)
let test_join_raises_lone_peer_height () =
  let ops =
    let j = Op_join and l = Op_leave and i = Op_insert 1 in
    [ j; j; l; l; j; l; i; i; l; l; j; l; l; j; l; i; j; l; l; l; l; l; i;
      l; l; j; i; i; i; l; j; i; j; j; l; l; l; l; j; j; j; l; i; l; l; j;
      i; l; l; j; j ]
  in
  Alcotest.(check bool) "audit holds" true (run_script ~salt:0 ops)

let churn_prop =
  let open QCheck2 in
  Test.make ~name:"random churn preserves the full structural audit"
    ~count:30
    ~print:(fun (ops, salt) ->
      Printf.sprintf "salt=%d ops=[%s]" salt
        (String.concat "; " (List.map print_op ops)))
    Gen.(pair (list_size (int_bound 60) gen_op) (int_bound 10_000))
    (fun (ops, salt) -> run_script ~salt ops)

(* Exact search is O(log n) with high probability; averaged over a
   query batch the constant is small. The bound leaves slack for the
   worst seeds while still failing on anything linear. *)
let hops_prop =
  let open QCheck2 in
  Test.make ~name:"mean exact-search hops stay logarithmic" ~count:8
    ~print:(fun (n, salt) -> Printf.sprintf "n=%d salt=%d" n salt)
    Gen.(pair (int_range 16 300) (int_bound 10_000))
    (fun (n, salt) ->
      let g = build ~seed:(4000 + salt) n in
      let rng = Rng.create salt in
      let keys = random_keys rng (3 * n) in
      ignore (SG.bulk_insert g keys : int);
      let q = 50 in
      let total = ref 0 in
      for _ = 1 to q do
        let k = List.nth keys (Rng.int rng (List.length keys)) in
        total := !total + snd (SG.lookup g k)
      done;
      let mean = float_of_int !total /. float_of_int q in
      let bound = (2. *. (log (float_of_int n) /. log 2.)) +. 5. in
      if mean > bound then
        QCheck2.Test.fail_reportf "mean hops %.2f > bound %.2f at n=%d" mean
          bound n;
      true)

(* Range answers against a [Sorted_store] model, under churn and
   crashes: whatever keys the model still holds inside [lo, hi] is
   exactly the query answer. *)
let range_model_prop =
  let open QCheck2 in
  Test.make ~name:"range answers match a Sorted_store model under churn"
    ~count:15
    ~print:(fun (salt, spans) ->
      Printf.sprintf "salt=%d spans=%d" salt (List.length spans))
    Gen.(
      pair (int_bound 10_000)
        (list_size (int_range 1 8)
           (pair
              (int_range domain_lo (domain_hi - 50_000_000))
              (int_range 1 50_000_000))))
    (fun (salt, spans) ->
      let g = build ~seed:(2000 + salt) 20 in
      let rng = Rng.create salt in
      let model = Sorted_store.create () in
      let add k = ignore (SG.insert g k : int); Sorted_store.insert model k in
      List.iter add (random_keys rng 150);
      (* Churn between query rounds, mirroring losses in the model. *)
      List.iter
        (fun (lo, span) ->
          (match Rng.int rng 3 with
          | 0 -> ignore (SG.join g : SG.join_stats)
          | 1 ->
            if SG.size g > 1 then
              ignore
                (SG.leave g (Rng.pick rng (SG.peer_ids g)) : SG.leave_stats)
          | _ ->
            if SG.size g > 2 then
              List.iter
                (fun k -> ignore (Sorted_store.remove model k : bool))
                (SG.crash g (Rng.pick rng (SG.peer_ids g))));
          let hi = lo + span in
          let got, _ = SG.range_query g ~lo ~hi in
          let expect = Sorted_store.keys_in model ~lo ~hi in
          if got <> expect then
            QCheck2.Test.fail_reportf
              "range [%d, %d]: got %d keys, model has %d" lo hi
              (List.length got) (List.length expect))
        spans;
      SG.check g;
      true)

let suite =
  [
    Alcotest.test_case "build and audit" `Quick test_build_and_audit;
    Alcotest.test_case "join pays messages" `Quick test_join_pays_messages;
    Alcotest.test_case "data roundtrip" `Quick test_data_roundtrip;
    Alcotest.test_case "range matches filter" `Quick test_range_matches_filter;
    Alcotest.test_case "bulk insert places all" `Quick
      test_bulk_insert_places_all;
    Alcotest.test_case "leave hands data over" `Quick
      test_leave_hands_data_over;
    Alcotest.test_case "crash + lazy repair" `Quick test_crash_lazy_repair;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "adversarial run, zero violations" `Quick
      test_adversarial_zero_violations;
    Alcotest.test_case "join raises a lone peer's height" `Quick
      test_join_raises_lone_peer_height;
    QCheck_alcotest.to_alcotest churn_prop;
    QCheck_alcotest.to_alcotest hops_prop;
    QCheck_alcotest.to_alcotest range_model_prop;
  ]
