(* Adversarial scenario engine and consistency oracle: bus partitions,
   gray peers, the fault-schedule grammar, the Search holes contract,
   suspicion bookkeeping under repeated timeouts, and driver-level
   determinism with faults and the oracle on. *)

module Rng = Baton_util.Rng
module Bus = Baton_sim.Bus
module Engine = Baton_sim.Engine
module Metrics = Baton_sim.Metrics
module Partition = Baton_sim.Partition
module Churn = Baton_workload.Churn
module Oracle = Baton_obs.Oracle
module Json = Baton_obs.Json
module Net = Baton.Net
module Driver = Baton_runtime.Driver

let expect_timeout bus ~src ~dst =
  match Bus.send bus ~src ~dst ~kind:"q" with
  | () -> Alcotest.failf "expected Timeout on %d->%d" src dst
  | exception Bus.Timeout d -> Alcotest.(check int) "timeout carries dst" dst d

(* --- Bus: partitions ------------------------------------------------ *)

let test_partition_blocks_pairs () =
  let bus = Bus.create () in
  Bus.set_partition bus
    ~assign:[ (1, 0); (2, 0); (3, 1) ]
    ~blocked:[ (0, 1); (1, 0) ];
  Alcotest.(check bool) "active" true (Bus.partition_active bus);
  expect_timeout bus ~src:1 ~dst:3;
  expect_timeout bus ~src:3 ~dst:2;
  (* Same island: unaffected. *)
  Bus.send bus ~src:1 ~dst:2 ~kind:"q";
  (* Unassigned peers (joined during the partition) reach everyone. *)
  Bus.send bus ~src:9 ~dst:3 ~kind:"q";
  Bus.send bus ~src:1 ~dst:9 ~kind:"q";
  Alcotest.(check int) "blocked sends counted" 2
    (Metrics.event_count (Bus.metrics bus) Bus.partition_event);
  Bus.clear_partition bus;
  Alcotest.(check bool) "healed" false (Bus.partition_active bus);
  Bus.send bus ~src:1 ~dst:3 ~kind:"q"

let test_partition_oneway () =
  let bus = Bus.create () in
  (* Block only island 1 -> island 0: the higher island cannot reach
     down, but its peers still hear the lower island. *)
  Bus.set_partition bus ~assign:[ (1, 0); (3, 1) ] ~blocked:[ (1, 0) ];
  expect_timeout bus ~src:3 ~dst:1;
  Bus.send bus ~src:1 ~dst:3 ~kind:"q"

(* --- Bus: gray peers ------------------------------------------------ *)

let test_gray_peer_drops_and_slows () =
  let bus = Bus.create () in
  Bus.set_gray_model bus ~seed:11;
  Bus.set_gray_peer bus 5 ~extra_drop:1.0 ~slow:3.;
  Alcotest.(check int) "one gray peer" 1 (Bus.gray_count bus);
  Alcotest.(check bool) "is_gray" true (Bus.is_gray bus 5);
  expect_timeout bus ~src:1 ~dst:5;
  expect_timeout bus ~src:5 ~dst:1;
  Alcotest.(check int) "gray drops counted" 2
    (Metrics.event_count (Bus.metrics bus) Bus.gray_event);
  Alcotest.(check (float 0.)) "slowdown is the worse endpoint" 3.
    (Bus.latency_factor bus ~src:1 ~dst:5);
  Alcotest.(check (float 0.)) "healthy pair unscaled" 1.
    (Bus.latency_factor bus ~src:1 ~dst:2);
  Bus.clear_gray_peer bus 5;
  Bus.send bus ~src:1 ~dst:5 ~kind:"q";
  Alcotest.(check (float 0.)) "recovered" 1. (Bus.latency_factor bus ~src:1 ~dst:5)

let test_gray_validation () =
  let bus = Bus.create () in
  Bus.set_gray_model bus ~seed:1;
  Alcotest.check_raises "drop > 1"
    (Invalid_argument "Bus.set_gray_peer: extra_drop outside [0, 1]") (fun () ->
      Bus.set_gray_peer bus 1 ~extra_drop:1.5 ~slow:2.);
  Alcotest.check_raises "slow < 1"
    (Invalid_argument "Bus.set_gray_peer: slow < 1") (fun () ->
      Bus.set_gray_peer bus 1 ~extra_drop:0.5 ~slow:0.5)

(* The gray PRNG is consulted only for hops touching a gray endpoint,
   so healthy traffic cannot perturb the fault sequence. *)
let test_gray_stream_isolated () =
  let outcomes bus =
    List.init 40 (fun i ->
        let dst = if i mod 2 = 0 then 5 else 2 in
        match Bus.send bus ~src:1 ~dst ~kind:"q" with
        | () -> true
        | exception Bus.Timeout _ -> false)
  in
  let a =
    let bus = Bus.create () in
    Bus.set_gray_model bus ~seed:42;
    Bus.set_gray_peer bus 5 ~extra_drop:0.5 ~slow:2.;
    outcomes bus
  in
  let b =
    let bus = Bus.create () in
    Bus.set_gray_model bus ~seed:42;
    Bus.set_gray_peer bus 5 ~extra_drop:0.5 ~slow:2.;
    (* Extra healthy traffic before the same sequence: must not shift
       the gray draws. *)
    for _ = 1 to 100 do
      Bus.send bus ~src:2 ~dst:3 ~kind:"q"
    done;
    outcomes bus
  in
  Alcotest.(check (list bool)) "same gray outcomes" a b

(* --- Bus: revive clears stale stun (satellite regression) ----------- *)

let test_revive_clears_stun () =
  let bus = Bus.create () in
  Bus.set_faults bus ~seed:3 ~drop_rate:0. ~transient_rate:0. ();
  Bus.stun bus 2 ~msgs:5;
  expect_timeout bus ~src:1 ~dst:2;
  (* Crash mid-stun, then restart: the revived peer must not silently
     swallow its first messages because of the stale stun. *)
  Bus.fail bus 2;
  Alcotest.check_raises "dead" (Bus.Unreachable 2) (fun () ->
      Bus.send bus ~src:1 ~dst:2 ~kind:"q");
  Bus.revive bus 2;
  Bus.send bus ~src:1 ~dst:2 ~kind:"q"

let test_fail_clears_stun () =
  let bus = Bus.create () in
  Bus.set_faults bus ~seed:3 ~drop_rate:0. ~transient_rate:0. ();
  Bus.stun bus 2 ~msgs:5;
  Bus.fail bus 2;
  (* A fresh stun after the revival still works: only stale state is
     cleared, the mechanism stays usable. *)
  Bus.revive bus 2;
  Bus.send bus ~src:1 ~dst:2 ~kind:"q";
  Bus.stun bus 2 ~msgs:1;
  expect_timeout bus ~src:1 ~dst:2;
  Bus.send bus ~src:1 ~dst:2 ~kind:"q"

(* --- Fault-schedule grammar ---------------------------------------- *)

let test_parse_round_trip () =
  let spec =
    "partition@500+1500:k=2,oneway;subtree@800:roots=2;gray@300+2000:peers=5,drop=0.3,slow=4"
  in
  match Partition.parse spec with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok schedule ->
    Alcotest.(check int) "three specs" 3 (List.length schedule);
    let printed = Partition.to_string schedule in
    (match Partition.parse printed with
    | Ok again ->
      Alcotest.(check string) "round trip" printed (Partition.to_string again)
    | Error e -> Alcotest.failf "re-parse failed: %s" e)

let test_parse_defaults_and_errors () =
  (match Partition.parse "subtree@100;gray@0+50:peers=2" with
  | Ok [ Partition.Subtree_crash { roots; _ }; Partition.Gray { extra_drop; slow; _ } ] ->
    Alcotest.(check int) "default roots" 1 roots;
    Alcotest.(check (float 0.)) "default drop" Partition.default_gray_drop extra_drop;
    Alcotest.(check (float 0.)) "default slow" Partition.default_gray_slow slow
  | Ok _ -> Alcotest.fail "unexpected shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  List.iter
    (fun bad ->
      match Partition.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ "partition@100:k=2"; "partition@1+2:k=1"; "gray@1+2:peers=0"; "nope@1"; "" ]

let test_islands_and_blocked_pairs () =
  Alcotest.(check (list (pair int int)))
    "contiguous halves"
    [ (10, 0); (11, 0); (12, 1); (13, 1) ]
    (Partition.islands ~order:[| 10; 11; 12; 13 |] ~k:2);
  Alcotest.(check int) "k=3 symmetric pairs" 6
    (List.length (Partition.blocked_pairs ~k:3 ~oneway:false));
  Alcotest.(check (list (pair int int)))
    "k=3 one-way: only downhill blocked"
    [ (1, 0); (2, 0); (2, 1) ]
    (List.sort compare (Partition.blocked_pairs ~k:3 ~oneway:true))

(* --- Engine.every --------------------------------------------------- *)

let test_engine_every () =
  let engine = Engine.create () in
  let fired = ref [] in
  Engine.every engine ~period:10. (fun () ->
      fired := Engine.now engine :: !fired;
      List.length !fired < 3);
  Engine.run engine;
  Alcotest.(check (list (float 0.))) "three ticks, one period apart"
    [ 10.; 20.; 30. ] (List.rev !fired);
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Engine.every: period <= 0") (fun () ->
      Engine.every engine ~period:0. (fun () -> false))

(* --- Churn.bursty ---------------------------------------------------- *)

let test_bursty_schedule () =
  let rng = Rng.create 9 in
  let events = Churn.bursty rng ~joins:10 ~leaves:8 ~bursts:3 ~burst_len:4 in
  let count e = Array.fold_left (fun n x -> if x = e then n + 1 else n) 0 events in
  Alcotest.(check int) "length" 30 (Array.length events);
  Alcotest.(check int) "joins" 10 (count Churn.Join);
  Alcotest.(check int) "leaves" 8 (count Churn.Leave);
  Alcotest.(check int) "fails" 12 (count Churn.Fail);
  (* Failures arrive as maximal runs of exactly burst_len. *)
  let runs = ref [] and cur = ref 0 in
  Array.iter
    (fun e ->
      if e = Churn.Fail then incr cur
      else if !cur > 0 then begin
        runs := !cur :: !runs;
        cur := 0
      end)
    events;
  if !cur > 0 then runs := !cur :: !runs;
  List.iter
    (fun len -> Alcotest.(check bool) "burst length multiple" true (len mod 4 = 0))
    !runs;
  Alcotest.check_raises "burst_len < 1" (Invalid_argument "Churn.bursty")
    (fun () -> ignore (Churn.bursty rng ~joins:1 ~leaves:1 ~bursts:1 ~burst_len:0))

(* --- Search: holes contract ----------------------------------------- *)

let test_search_holes_quiescent () =
  let net = Baton.Network.build ~seed:5 30 in
  let keys = List.init 50 (fun i -> (i * 1987) + 13) in
  ignore (Baton.Update.bulk_insert net ~from:(Net.random_peer net) keys);
  let r =
    Baton.Search.range net ~from:(Net.random_peer net) ~lo:1 ~hi:200_000
  in
  Alcotest.(check bool) "complete" true r.Baton.Search.complete;
  Alcotest.(check (list (pair int int))) "no holes" [] r.Baton.Search.holes;
  let e = Baton.Search.exact net ~from:(Net.random_peer net) 12_345 in
  Alcotest.(check bool) "exact complete" true e.Baton.Search.complete;
  Alcotest.(check (list (pair int int))) "exact no holes" [] e.Baton.Search.holes

let test_search_holes_cover_missing_keys () =
  let net = Baton.Network.build ~seed:6 40 in
  let keys = List.init 200 (fun i -> (i * 4_999_999) + 101) in
  ignore (Baton.Update.bulk_insert net ~from:(Net.random_peer net) keys);
  let lo = 1 and hi = Baton_workload.Datagen.domain_hi - 1 in
  let all =
    (Baton.Search.range net ~from:(Net.random_peer net) ~lo ~hi).Baton.Search.keys
  in
  Alcotest.(check int) "all keys reachable" 200 (List.length all);
  (* Kill a mid-tree peer outright (no repair): the sweep must bridge
     the gap, flag the answer incomplete, and report holes that cover
     exactly the keys it could not reach. *)
  let victim =
    let peers =
      List.sort
        (fun (a : Baton.Node.t) (b : Baton.Node.t) ->
          compare a.Baton.Node.range.Baton.Range.lo
            b.Baton.Node.range.Baton.Range.lo)
        (Net.peers net)
    in
    List.nth peers (List.length peers / 2)
  in
  Bus.fail (Net.bus net) victim.Baton.Node.id;
  let from =
    List.find
      (fun (p : Baton.Node.t) -> p.Baton.Node.id <> victim.Baton.Node.id)
      (Net.peers net)
  in
  let r = Baton.Search.range net ~from ~lo ~hi in
  Alcotest.(check bool) "incomplete" false r.Baton.Search.complete;
  Alcotest.(check bool) "has holes" true (r.Baton.Search.holes <> []);
  (* Holes are within the query, ascending and disjoint. *)
  let rec well_formed prev = function
    | [] -> true
    | (a, b) :: tl -> a >= lo && b <= hi + 1 && a < b && a >= prev && well_formed b tl
  in
  Alcotest.(check bool) "holes well-formed" true (well_formed lo r.Baton.Search.holes);
  let in_hole k = List.exists (fun (a, b) -> a <= k && k < b) r.Baton.Search.holes in
  List.iter
    (fun k ->
      if not (List.mem k r.Baton.Search.keys) then
        Alcotest.(check bool) (Printf.sprintf "missing key %d inside a hole" k)
          true (in_hole k))
    all;
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "answered key %d outside holes" k)
        false (in_hole k))
    r.Baton.Search.keys

(* --- Failure: repeated timeouts to an already-suspected peer -------- *)

let test_repeated_timeout_no_double_repair () =
  let net = Baton.Network.build ~seed:7 20 in
  Net.set_suspicion_repair net true;
  let bus = Net.bus net in
  Bus.set_faults bus ~seed:1 ~drop_rate:0. ~transient_rate:0. ();
  let metrics = Net.metrics net in
  let peers = Net.peers net in
  let suspect = List.hd peers in
  let observer =
    List.find
      (fun (p : Baton.Node.t) -> p.Baton.Node.id <> suspect.Baton.Node.id)
      peers
  in
  (* The peer is alive but silent: every probe times out. Repeated
     observations must keep counting without ever convicting. *)
  Bus.stun bus suspect.Baton.Node.id ~msgs:1000;
  for i = 1 to 10 do
    Baton.Failure.observe_timeout net ~observer suspect.Baton.Node.id;
    Alcotest.(check int)
      (Printf.sprintf "suspicions monotone at %d" i)
      i
      (Metrics.event_count metrics Baton.Msg.ev_suspect)
  done;
  Alcotest.(check int) "silence alone never triggers repair" 0
    (Metrics.event_count metrics Baton.Msg.ev_repair_triggered);
  (* Now the suspect really dies (the crash clears the stale stun): an
     unreachable address convicts, triggering exactly one repair, and
     further observations of the same id do not start a second one. *)
  Bus.fail bus suspect.Baton.Node.id;
  Baton.Failure.observe_unreachable net ~observer suspect.Baton.Node.id;
  Alcotest.(check int) "one repair" 1
    (Metrics.event_count metrics Baton.Msg.ev_repair_triggered);
  Baton.Failure.observe_timeout net ~observer suspect.Baton.Node.id;
  Baton.Failure.observe_timeout net ~observer suspect.Baton.Node.id;
  Alcotest.(check int) "no double repair" 1
    (Metrics.event_count metrics Baton.Msg.ev_repair_triggered);
  Alcotest.(check bool) "peer repaired out of the overlay" true
    (Net.peer_opt net suspect.Baton.Node.id = None
    || not (Bus.is_failed bus suspect.Baton.Node.id))

(* --- Oracle ---------------------------------------------------------- *)

let verdict =
  Alcotest.testable
    (fun ppf -> function
      | Oracle.Pass -> Fmt.string ppf "Pass"
      | Oracle.Tolerated r -> Fmt.pf ppf "Tolerated %s" r
      | Oracle.Violation r -> Fmt.pf ppf "Violation %s" r)
    (fun a b ->
      match (a, b) with
      | Oracle.Pass, Oracle.Pass -> true
      | Oracle.Tolerated _, Oracle.Tolerated _ -> true
      | Oracle.Violation _, Oracle.Violation _ -> true
      | _ -> false)

let test_oracle_exact () =
  let o = Oracle.create () in
  Oracle.seed_keys o [ 10; 20 ];
  let check ?(complete = true) ~key ~found () =
    Oracle.check_exact o ~started:5. ~finished:6. ~key ~found ~complete ()
  in
  Alcotest.check verdict "present found" Oracle.Pass (check ~key:10 ~found:true ());
  Alcotest.check verdict "absent not found" Oracle.Pass (check ~key:11 ~found:false ());
  Alcotest.check verdict "stale read" (Oracle.Violation "stale read")
    (check ~key:20 ~found:false ());
  Alcotest.check verdict "incomplete miss tolerated" (Oracle.Tolerated "x")
    (check ~key:20 ~found:false ~complete:false ());
  Alcotest.check verdict "phantom" (Oracle.Violation "phantom")
    (check ~key:12 ~found:true ());
  Alcotest.(check int) "checked" 5 (Oracle.checked o);
  Alcotest.(check int) "violations" 2 (Oracle.violation_count o);
  Alcotest.(check int) "incomplete flagged" 1 (Oracle.incomplete_count o)

let test_oracle_uncertainty () =
  let o = Oracle.create () in
  (* In-flight mutation: every overlapping reader is excused either way. *)
  Oracle.begin_mutation o 30;
  Alcotest.check verdict "pending uncertain (found)" (Oracle.Tolerated "x")
    (Oracle.check_exact o ~started:1. ~finished:2. ~key:30 ~found:true
       ~complete:true ());
  Oracle.commit_insert o 30 ~started:5. ~finished:8.;
  (* Reader whose window opened inside the commit window: still
     uncertain. *)
  Alcotest.check verdict "overlapping commit uncertain" (Oracle.Tolerated "x")
    (Oracle.check_exact o ~started:6. ~finished:9. ~key:30 ~found:false
       ~complete:true ());
  (* Reader starting after the commit settled: definite. *)
  Alcotest.check verdict "settled insert read" Oracle.Pass
    (Oracle.check_exact o ~started:9. ~finished:10. ~key:30 ~found:true
       ~complete:true ());
  Alcotest.check verdict "settled insert stale" (Oracle.Violation "stale read")
    (Oracle.check_exact o ~started:9. ~finished:10. ~key:30 ~found:false
       ~complete:true ());
  (* An aborted mutation leaves the previous state in force. *)
  Oracle.begin_mutation o 40;
  Oracle.abort_mutation o 40;
  Alcotest.check verdict "aborted insert never applied" Oracle.Pass
    (Oracle.check_exact o ~started:11. ~finished:12. ~key:40 ~found:false
       ~complete:true ())

let test_oracle_lost_keys () =
  let o = Oracle.create () in
  Oracle.seed_keys o [ 10 ];
  Oracle.note_lost o ~time:4. [ 10 ];
  Alcotest.(check int) "lost counted" 1 (Oracle.lost_keys o);
  (* After the crash instant, absence is correct — not a stale read. *)
  Alcotest.check verdict "crashed key absent" Oracle.Pass
    (Oracle.check_exact o ~started:5. ~finished:6. ~key:10 ~found:false
       ~complete:true ());
  Alcotest.check verdict "crashed key phantom" (Oracle.Violation "phantom")
    (Oracle.check_exact o ~started:5. ~finished:6. ~key:10 ~found:true
       ~complete:true ())

let test_oracle_range () =
  let o = Oracle.create () in
  Oracle.seed_keys o [ 10; 20; 30 ];
  let check ?(complete = true) ?(holes = []) ~keys () =
    Oracle.check_range o ~started:5. ~finished:6. ~lo:0 ~hi:100 ~keys ~complete
      ~holes ()
  in
  Alcotest.check verdict "full answer" Oracle.Pass
    (check ~keys:[ 10; 20; 30 ] ());
  Alcotest.check verdict "false-complete" (Oracle.Violation "x")
    (check ~keys:[ 10; 30 ] ());
  Alcotest.check verdict "broken tiling" (Oracle.Violation "x")
    (check ~keys:[ 10; 30 ] ~complete:false ~holes:[ (40, 50) ] ());
  Alcotest.check verdict "omission inside reported hole" (Oracle.Tolerated "x")
    (check ~keys:[ 10; 30 ] ~complete:false ~holes:[ (15, 25) ] ());
  Alcotest.check verdict "phantom key" (Oracle.Violation "x")
    (check ~keys:[ 10; 20; 30; 55 ] ());
  Alcotest.check verdict "out-of-range key" (Oracle.Violation "x")
    (check ~keys:[ 10; 20; 30; 200 ] ());
  (* Judged as sets: the store is a multiset, presence is the model. *)
  Alcotest.check verdict "duplicates are not phantoms" Oracle.Pass
    (check ~keys:[ 10; 10; 20; 30 ] ());
  match Oracle.json o with
  | Json.Obj fields ->
    Alcotest.(check bool) "json has violation details" true
      (List.mem_assoc "violation_details" fields)
  | _ -> Alcotest.fail "oracle json shape"

(* The ordered key index is built by the first range check; keys that
   appear after it (new inserts, deletes at [lo] and [hi]) must still
   be seen by later checks. *)
let test_oracle_range_index_follows_new_keys () =
  let o = Oracle.create () in
  Oracle.seed_keys o [ 10; 20 ];
  let check ~started ~keys =
    Oracle.check_range o ~started ~finished:(started +. 1.) ~lo:10 ~hi:20 ~keys
      ~complete:true ~holes:[] ()
  in
  Alcotest.(check bool) "bounds are inclusive" true
    (check ~started:1. ~keys:[ 10; 20 ] = Oracle.Pass);
  Oracle.begin_mutation o 15;
  Oracle.commit_insert o 15 ~started:2. ~finished:3.;
  Alcotest.(check bool) "inserted key omitted" true
    (check ~started:4. ~keys:[ 10; 20 ]
    = Oracle.Violation "false-complete: present key 15 omitted with no hole reported");
  Oracle.note_lost o ~time:5. [ 20 ];
  Oracle.commit_delete o 10 ~started:5. ~finished:6.;
  Alcotest.(check bool) "deleted key at lo answered" true
    (check ~started:7. ~keys:[ 10; 15 ]
    = Oracle.Violation "phantom key 10: absent (or out of range) but answered");
  Alcotest.(check bool) "after the deletes" true (check ~started:7. ~keys:[ 15 ] = Oracle.Pass)

(* The oracle's model as plain per-key state, with every known key
   scanned on each range check: the definition [Oracle.check_range]
   must keep. Only a key's newest settled transition matters. *)
type range_model = {
  settled : (int, float * bool) Hashtbl.t;  (** key -> (settled at, present) *)
  in_flight : (int, int) Hashtbl.t;
}

let model_state m k ~w0 =
  if Hashtbl.mem m.in_flight k then None
  else
    match Hashtbl.find_opt m.settled k with
    | None -> Some false
    | Some (at, present) -> if at <= w0 then Some present else None

let model_settle m k =
  match Hashtbl.find_opt m.in_flight k with
  | Some n when n > 1 -> Hashtbl.replace m.in_flight k (n - 1)
  | Some _ -> Hashtbl.remove m.in_flight k
  | None -> ()

let model_range m ~started ~lo ~hi ~keys ~complete ~holes =
  let answered = List.sort_uniq compare keys in
  let state k = model_state m k ~w0:started in
  let phantoms =
    List.filter (fun k -> k < lo || k > hi || state k = Some false) answered
  in
  let omitted =
    Hashtbl.fold
      (fun k _ acc -> if k >= lo && k <= hi && not (List.mem k answered) then k :: acc else acc)
      m.settled []
    |> List.sort compare
  in
  let hidden, missing =
    List.filter (fun k -> state k = Some true) omitted
    |> List.partition (fun k -> List.exists (fun (a, b) -> a <= k && k < b) holes)
  in
  let verdict =
    match (phantoms, missing) with
    | p :: _, _ ->
      Oracle.Violation
        (Printf.sprintf "phantom key %d: absent (or out of range) but answered" p)
    | [], k :: _ ->
      Oracle.Violation
        (if complete then
           Printf.sprintf "false-complete: present key %d omitted with no hole reported" k
         else
           Printf.sprintf "broken tiling: present key %d omitted outside every reported hole" k)
    | [], [] ->
      if hidden <> [] then Oracle.Tolerated "present keys omitted inside reported holes"
      else if List.exists (fun k -> state k = None) omitted && not complete then
        Oracle.Tolerated "incomplete under concurrent mutation"
      else Oracle.Pass
  in
  let field name ks =
    if ks = [] then []
    else [ (name, Json.List (List.filteri (fun i _ -> i < 8) ks |> List.map (fun k -> Json.Int k))) ]
  in
  ( verdict,
    [ ("lo", Json.Int lo); ("hi", Json.Int hi) ]
    @ field "phantoms" phantoms @ field "missing" missing @ field "hidden" hidden )

type oracle_step =
  | Begin of int
  | Commit of int * bool  (** [true]: an insert, [false]: a delete *)
  | Abort of int
  | Lost of int list
  | Range of {
      lo : int;
      hi : int;
      keys : int list;
      complete : bool;
      holes : (int * int) list;
      back : int;  (** how many steps before now the reader's window opened *)
    }

let print_oracle_step =
  let ints l = String.concat "," (List.map string_of_int l) in
  function
  | Begin k -> Printf.sprintf "begin %d" k
  | Commit (k, ins) -> Printf.sprintf "%s %d" (if ins then "insert" else "delete") k
  | Abort k -> Printf.sprintf "abort %d" k
  | Lost ks -> Printf.sprintf "lost [%s]" (ints ks)
  | Range r ->
    Printf.sprintf "range [%d,%d] keys=[%s] complete=%b holes=[%s] back=%d" r.lo r.hi
      (ints r.keys) r.complete
      (String.concat "," (List.map (fun (a, b) -> Printf.sprintf "%d-%d" a b) r.holes))
      r.back

let gen_oracle_step =
  let open QCheck2.Gen in
  let key = int_range 0 40 in
  let range =
    let* lo = int_range (-2) 42 and* span = int_range (-1) 30 in
    let* keys = list_size (int_bound 12) (int_range (-5) 45)
    and* complete = bool
    and* holes = list_size (int_bound 2) (pair key (int_range 1 8))
    and* back = int_bound 3 in
    return
      (Range
         {
           lo;
           hi = lo + span;
           keys;
           complete;
           holes = List.map (fun (a, w) -> (a, a + w)) holes;
           back;
         })
  in
  frequency
    [
      (3, map (fun k -> Begin k) key);
      (3, map2 (fun k ins -> Commit (k, ins)) key bool);
      (1, map (fun k -> Abort k) key);
      (1, map (fun ks -> Lost ks) (list_size (int_bound 3) key));
      (3, range);
    ]

let newest_detail o =
  match Json.member "violation_details" (Oracle.json o) with
  | Some (Json.List l) -> List.nth_opt (List.rev l) 0
  | _ -> None

(* Replay one history into the oracle and the model; every range check
   must give the model's verdict and, while the oracle still keeps
   violation details, the model's detail fields. *)
let oracle_range_agrees (seeded, steps) =
  let o = Oracle.create () in
  let m = { settled = Hashtbl.create 16; in_flight = Hashtbl.create 16 } in
  Oracle.seed_keys o seeded;
  List.iter (fun k -> Hashtbl.replace m.settled k (0., true)) seeded;
  let step i s =
    let now = float_of_int (i + 1) in
    match s with
    | Begin k ->
      Oracle.begin_mutation o k;
      Hashtbl.replace m.in_flight k
        (1 + Option.value ~default:0 (Hashtbl.find_opt m.in_flight k));
      true
    | Commit (k, ins) ->
      (if ins then Oracle.commit_insert else Oracle.commit_delete)
        o k ~started:(now -. 2.) ~finished:now;
      model_settle m k;
      Hashtbl.replace m.settled k (now, ins);
      true
    | Abort k ->
      Oracle.abort_mutation o k;
      model_settle m k;
      true
    | Lost ks ->
      Oracle.note_lost o ~time:now ks;
      List.iter (fun k -> Hashtbl.replace m.settled k (now, false)) ks;
      true
    | Range { lo; hi; keys; complete; holes; back } ->
      let started = now -. float_of_int back in
      let got =
        Oracle.check_range o ~started ~finished:now ~lo ~hi ~keys ~complete ~holes ()
      in
      let want, fields = model_range m ~started ~lo ~hi ~keys ~complete ~holes in
      got = want
      &&
      match want with
      | Oracle.Violation reason when Oracle.violation_count o <= 16 ->
        newest_detail o
        = Some
            (Json.Obj
               (("op", Json.String "range") :: ("reason", Json.String reason) :: fields))
      | _ -> true
  in
  List.for_all Fun.id (List.mapi step steps)

let oracle_range_prop =
  let open QCheck2 in
  Test.make ~name:"oracle range verdicts equal a scan over every known key" ~count:300
    ~print:(fun (seeded, steps) ->
      Printf.sprintf "seeded=[%s] steps=[%s]"
        (String.concat "," (List.map string_of_int seeded))
        (String.concat "; " (List.map print_oracle_step steps)))
    Gen.(pair (list_size (int_bound 15) (int_range 0 40)) (list_size (int_bound 24) gen_oracle_step))
    oracle_range_agrees

(* --- Driver: adversarial runs are deterministic and violation-free -- *)

let adv_config ?schedule () =
  let fault_schedule =
    match schedule with
    | None -> []
    | Some spec -> (
      match Partition.parse spec with
      | Ok s -> s
      | Error e -> Alcotest.failf "schedule: %s" e)
  in
  Driver.config ~seed:4242 ~keys_per_node:5 ~clients:8 ~ops:80
    ~fault_schedule ~oracle:true ~n:60 ~mix:Driver.adversarial ()

let test_driver_adversarial_deterministic () =
  let spec = "partition@200+400:k=2;gray@100+500:peers=3;subtree@700" in
  let r1 = Driver.run (adv_config ~schedule:spec ()) in
  let r2 = Driver.run (adv_config ~schedule:spec ()) in
  Alcotest.(check string) "byte-identical reports"
    (Json.to_string (Driver.report_json r1))
    (Json.to_string (Driver.report_json r2));
  let o = Option.get r1.Driver.oracle in
  Alcotest.(check bool) "ops judged" true (Oracle.checked o > 0);
  Alcotest.(check int) "zero violations" 0 (Oracle.violation_count o);
  Alcotest.(check bool) "scenario ran" true (r1.Driver.scenario <> []);
  Alcotest.(check bool) "partition bit" true (r1.Driver.partition_timeouts > 0)

let test_driver_oracle_off_identical_metrics () =
  (* The oracle and tracer are pure observers: same seed with checking
     on and off transmits the identical message multiset. *)
  let on = Driver.run (adv_config ()) in
  let off =
    Driver.run
      (Driver.config ~seed:4242 ~keys_per_node:5 ~clients:8 ~ops:80 ~n:60
         ~mix:Driver.adversarial ())
  in
  Alcotest.(check int) "same messages" off.Driver.messages on.Driver.messages;
  Alcotest.(check (float 0.)) "same virtual duration" off.Driver.duration_ms
    on.Driver.duration_ms

let suite =
  [
    Alcotest.test_case "partition blocks island pairs" `Quick test_partition_blocks_pairs;
    Alcotest.test_case "partition one-way" `Quick test_partition_oneway;
    Alcotest.test_case "gray peer drops and slows" `Quick test_gray_peer_drops_and_slows;
    Alcotest.test_case "gray validation" `Quick test_gray_validation;
    Alcotest.test_case "gray PRNG isolated" `Quick test_gray_stream_isolated;
    Alcotest.test_case "revive clears stale stun" `Quick test_revive_clears_stun;
    Alcotest.test_case "fail clears stun, fresh stun works" `Quick test_fail_clears_stun;
    Alcotest.test_case "schedule parse round-trip" `Quick test_parse_round_trip;
    Alcotest.test_case "schedule defaults and errors" `Quick test_parse_defaults_and_errors;
    Alcotest.test_case "islands and blocked pairs" `Quick test_islands_and_blocked_pairs;
    Alcotest.test_case "engine every" `Quick test_engine_every;
    Alcotest.test_case "bursty churn schedule" `Quick test_bursty_schedule;
    Alcotest.test_case "search holes: quiescent" `Quick test_search_holes_quiescent;
    Alcotest.test_case "search holes cover missing keys" `Quick test_search_holes_cover_missing_keys;
    Alcotest.test_case "repeated timeouts: no double repair" `Quick test_repeated_timeout_no_double_repair;
    Alcotest.test_case "oracle exact verdicts" `Quick test_oracle_exact;
    Alcotest.test_case "oracle uncertainty windows" `Quick test_oracle_uncertainty;
    Alcotest.test_case "oracle lost keys" `Quick test_oracle_lost_keys;
    Alcotest.test_case "oracle range verdicts" `Quick test_oracle_range;
    Alcotest.test_case "oracle range index follows new keys" `Quick
      test_oracle_range_index_follows_new_keys;
    QCheck_alcotest.to_alcotest oracle_range_prop;
    Alcotest.test_case "driver adversarial deterministic" `Slow test_driver_adversarial_deterministic;
    Alcotest.test_case "oracle is a pure observer" `Slow test_driver_oracle_off_identical_metrics;
  ]
