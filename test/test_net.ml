(* Network registry: registration, repositioning, deferred
   notifications, random peer selection. *)

module Net = Baton.Net
module Node = Baton.Node
module Position = Baton.Position
module Range = Baton.Range
module Bus = Baton_sim.Bus
module N = Baton.Network
module Link = Baton.Link
module Join = Baton.Join
module Leave = Baton.Leave
module Failure = Baton.Failure
module Restructure = Baton.Restructure
module Check = Baton.Check
module Rng = Baton_util.Rng

let domain = Range.make ~lo:0 ~hi:1000

let make_net () = Net.create ~seed:5 ~domain ()

let make_node net pos =
  Node.create ~id:(Net.fresh_id net) ~pos ~range:domain

let test_bootstrap_and_root () =
  let net = make_net () in
  Alcotest.(check int) "empty" 0 (Net.size net);
  Alcotest.(check bool) "no root" true (Net.root net = None);
  let root = Net.bootstrap net in
  Alcotest.(check int) "one" 1 (Net.size net);
  Alcotest.(check bool) "root found" true
    (match Net.root net with Some r -> r.Node.id = root.Node.id | None -> false);
  Alcotest.check_raises "second bootstrap" (Invalid_argument "Net.bootstrap: network is not empty")
    (fun () -> ignore (Net.bootstrap net))

let test_register_conflicts () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let dup_pos = Node.create ~id:(Net.fresh_id net) ~pos:Position.root ~range:domain in
  Alcotest.check_raises "position occupied" (Invalid_argument "Net.register: position occupied")
    (fun () -> Net.register net dup_pos);
  let dup_id = Node.create ~id:root.Node.id ~pos:(Position.left_child Position.root) ~range:domain in
  Alcotest.check_raises "id taken" (Invalid_argument "Net.register: peer id already registered")
    (fun () -> Net.register net dup_id)

let test_reposition () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let child_pos = Position.left_child Position.root in
  let child = make_node net child_pos in
  Net.register net child;
  Alcotest.check_raises "target occupied" (Invalid_argument "Net.reposition: position occupied")
    (fun () -> Net.reposition net child Position.root);
  let new_pos = Position.right_child Position.root in
  Net.reposition net child new_pos;
  Alcotest.(check bool) "pos updated" true (Position.equal child.Node.pos new_pos);
  Alcotest.(check bool) "old slot empty" true (Net.peer_at net child_pos = None);
  Alcotest.(check bool) "new slot filled" true
    (match Net.peer_at net new_pos with Some n -> n.Node.id = child.Node.id | None -> false);
  ignore root

(* A refused move leaves the peer registered where it was: still at its
   position, and still found there. *)
let test_reposition_refused_keeps_peer () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let child_pos = Position.left_child Position.root in
  let child = make_node net child_pos in
  Net.register net child;
  Alcotest.check_raises "target occupied" (Invalid_argument "Net.reposition: position occupied")
    (fun () -> Net.reposition net child Position.root);
  Alcotest.(check bool) "pos unchanged" true (Position.equal child.Node.pos child_pos);
  Alcotest.(check bool) "still found at its position" true
    (match Net.peer_at net child_pos with Some n -> n == child | None -> false);
  Alcotest.(check bool) "target keeps its occupant" true
    (match Net.peer_at net Position.root with Some n -> n == root | None -> false)

let test_unregister_updates_size_and_ids () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let child = make_node net (Position.left_child Position.root) in
  Net.register net child;
  Alcotest.(check int) "two" 2 (Net.size net);
  Net.unregister net child;
  Alcotest.(check int) "one" 1 (Net.size net);
  Alcotest.(check bool) "gone from ids" true
    (not (Array.exists (( = ) child.Node.id) (Net.live_ids net)));
  Alcotest.(check bool) "lookup fails" true (Net.peer_opt net child.Node.id = None);
  ignore root

let test_random_peer_skips_failed () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let child = make_node net (Position.left_child Position.root) in
  Net.register net child;
  Bus.fail (Net.bus net) root.Node.id;
  for _ = 1 to 50 do
    Alcotest.(check int) "only live peer drawn" child.Node.id (Net.random_peer net).Node.id
  done;
  Bus.fail (Net.bus net) child.Node.id;
  Alcotest.check_raises "all failed" (Invalid_argument "Net.random_peer: no live peer")
    (fun () -> ignore (Net.random_peer net))

let test_send_counts_and_resolves () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let child = make_node net (Position.left_child Position.root) in
  Net.register net child;
  let m = Net.metrics net in
  let before = Baton_sim.Metrics.total m in
  let got = Net.send net ~src:child.Node.id ~dst:root.Node.id ~kind:"t" in
  Alcotest.(check int) "resolved" root.Node.id got.Node.id;
  Alcotest.(check int) "counted" (before + 1) (Baton_sim.Metrics.total m)

let test_defer_queues_and_flushes () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let child = make_node net (Position.left_child Position.root) in
  Net.register net child;
  let hits = ref 0 in
  Net.set_defer net true;
  Alcotest.(check bool) "deferring" true (Net.deferring net);
  Net.notify net ~src:child.Node.id ~dst:root.Node.id ~kind:"t" (fun _ -> incr hits);
  Alcotest.(check int) "not yet applied" 0 !hits;
  Net.flush_deferred net;
  Alcotest.(check int) "applied at flush" 1 !hits;
  Alcotest.(check bool) "defer cleared" false (Net.deferring net)

let test_notify_expect_pos_guard () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let child = make_node net (Position.left_child Position.root) in
  Net.register net child;
  let hits = ref 0 in
  Net.notify net ~expect_pos:Position.root ~src:child.Node.id ~dst:root.Node.id
    ~kind:"t" (fun _ -> incr hits);
  Alcotest.(check int) "matching role applies" 1 !hits;
  Net.notify net
    ~expect_pos:(Position.right_child Position.root)
    ~src:child.Node.id ~dst:root.Node.id ~kind:"t" (fun _ -> incr hits);
  Alcotest.(check int) "changed role ignored" 1 !hits

let test_notify_to_vanished_peer_still_counts () =
  let net = make_net () in
  let root = Net.bootstrap net in
  let m = Net.metrics net in
  let before = Baton_sim.Metrics.total m in
  Net.notify net ~src:root.Node.id ~dst:9999 ~kind:"t" (fun _ -> Alcotest.fail "must not apply");
  Alcotest.(check int) "message still paid" (before + 1) (Baton_sim.Metrics.total m)

let test_shift_histogram () =
  let net = make_net () in
  Net.record_shift net 3;
  Net.record_shift net 3;
  Net.record_shift net 7;
  let h = Net.shift_histogram net in
  Alcotest.(check int) "bucket 3" 2 (Baton_util.Histogram.count h 3);
  Alcotest.(check int) "total" 3 (Baton_util.Histogram.total h)

(* --- live_ids ------------------------------------------------------- *)

(* The definition [live_ids] must keep: every registered, non-failed
   peer, by ascending id. *)
let reference_live_ids net =
  Net.peers net
  |> List.filter (fun (n : Node.t) -> not (Bus.is_failed (Net.bus net) n.Node.id))
  |> List.map (fun (n : Node.t) -> n.Node.id)
  |> List.sort compare |> Array.of_list

let test_live_ids_fresh_array () =
  let net = N.build ~seed:11 30 in
  let first = Net.live_ids net in
  let expected = Array.copy first in
  Array.fill first 0 (Array.length first) (-1);
  Alcotest.(check (array int)) "mutation does not leak" expected (Net.live_ids net);
  Alcotest.(check bool) "distinct arrays" true (Net.live_ids net != Net.live_ids net)

let test_live_ids_hand_made_ids () =
  let net = make_net () in
  let root = Net.bootstrap net in
  (* Ids above [next_id]: one a little past it, one far enough to make
     the id span sparse. *)
  let near =
    Node.create ~id:(Net.fresh_id net + 40) ~pos:(Position.left_child Position.root)
      ~range:domain
  in
  Net.register net near;
  Alcotest.(check (array int)) "dense span" [| root.Node.id; near.Node.id |] (Net.live_ids net);
  let far =
    Node.create ~id:1_000_000_007 ~pos:(Position.right_child Position.root) ~range:domain
  in
  Net.register net far;
  Alcotest.(check (array int)) "sparse span"
    [| root.Node.id; near.Node.id; far.Node.id |] (Net.live_ids net);
  Bus.fail (Net.bus net) near.Node.id;
  Alcotest.(check (array int)) "failed excluded" [| root.Node.id; far.Node.id |]
    (Net.live_ids net);
  Alcotest.(check (array int)) "matches reference" (reference_live_ids net) (Net.live_ids net);
  Net.unregister net far;
  Alcotest.(check (array int)) "dense again" [| root.Node.id |] (Net.live_ids net)

type op =
  | Op_join
  | Op_leave of bool  (** [true]: an internal peer, which needs a replacement *)
  | Op_crash
  | Op_repair
  | Op_forced_join
  | Op_forced_leave
  | Op_save_load

let print_op = function
  | Op_join -> "join"
  | Op_leave internal -> if internal then "leave-internal" else "leave"
  | Op_crash -> "crash"
  | Op_repair -> "repair"
  | Op_forced_join -> "forced-join"
  | Op_forced_leave -> "forced-leave"
  | Op_save_load -> "save/load"

let gen_op =
  let open QCheck2.Gen in
  frequency
    [
      (4, return Op_join);
      (2, return (Op_leave false));
      (2, return (Op_leave true));
      (2, return Op_crash);
      (2, return Op_repair);
      (2, return Op_forced_join);
      (2, return Op_forced_leave);
      (1, return Op_save_load);
    ]

(* Hand a node's range and content to an in-order neighbour, as the
   balancer does before a forced leave. *)
let hand_off net (victim : Node.t) =
  match Node.adjacent victim `Left, Node.adjacent victim `Right with
  | Some l, _ | None, Some l ->
    let n = Net.peer net l.Link.peer in
    Baton_util.Sorted_store.absorb n.Node.store victim.Node.store;
    n.Node.range <- Range.merge n.Node.range victim.Node.range;
    true
  | None, None -> false

let snapshot_path = Filename.concat (Filename.get_temp_dir_name ()) "baton_membership.bin"

(* Replays a membership script and holds [check] after every step. At
   most one peer is crashed at a time, and it is repaired before any
   other membership change, so every protocol runs on a repairable
   network. *)
let membership_script ~salt ~check ops =
  let net = ref (N.build ~seed:(9000 + salt) 12) in
  let rng = Rng.create salt in
  let crashed = ref None in
  let pick () = Net.peer !net (Rng.pick rng (reference_live_ids !net)) in
  let repair () =
    Option.iter
      (fun id -> Failure.repair !net ~reporter:(Net.random_peer !net) id)
      !crashed;
    crashed := None
  in
  let leaves () = List.filter Node.is_leaf (Check.in_order_nodes !net) in
  let step = function
    | Op_join ->
      repair ();
      ignore (Join.join !net ~via:(Net.random_peer !net))
    | Op_leave internal ->
      repair ();
      if Net.size !net > 2 then begin
        let candidates =
          List.filter
            (fun (n : Node.t) -> Node.is_leaf n <> internal)
            (Check.in_order_nodes !net)
        in
        let victim =
          match candidates with
          | [] -> pick ()
          | l -> List.nth l (Rng.int rng (List.length l))
        in
        ignore (Leave.leave !net victim)
      end
    | Op_crash ->
      if !crashed = None && Net.size !net > 3 then begin
        let v = pick () in
        Failure.crash !net v;
        crashed := Some v.Node.id
      end
    | Op_repair -> repair ()
    | Op_forced_join ->
      repair ();
      let l = leaves () in
      let parent = List.nth l (Rng.int rng (List.length l)) in
      ignore (Restructure.forced_join !net ~parent (Net.fresh_id !net))
    | Op_forced_leave ->
      repair ();
      if Net.size !net > 3 then begin
        let victim = pick () in
        if (not (Node.is_root victim)) && hand_off !net victim then
          Restructure.forced_leave !net victim
      end
    | Op_save_load ->
      Net.save !net snapshot_path;
      net := Net.load snapshot_path;
      Sys.remove snapshot_path
  in
  List.for_all
    (fun op ->
      step op;
      check !net)
    ops

let membership_prop ~name check =
  let open QCheck2 in
  Test.make ~name ~count:40
    ~print:(fun (ops, salt) ->
      Printf.sprintf "salt=%d ops=[%s]" salt
        (String.concat "; " (List.map print_op ops)))
    Gen.(pair (list_size (int_bound 40) gen_op) (int_bound 10_000))
    (fun (ops, salt) -> membership_script ~salt ~check ops)

let live_ids_prop =
  membership_prop ~name:"live_ids equals the sorted live membership" (fun net ->
      Net.live_ids net = reference_live_ids net)

(* The definition the position index must keep: a position's occupant
   is the registered peer whose [pos] it is. Checked at every occupied
   position and both its child positions, by physical equality with the
   record in [Net.peers], so a loaded snapshot must have kept the
   sharing between the two tables. *)
let positions_match net =
  let reference = Hashtbl.create 64 in
  List.iter
    (fun (n : Node.t) ->
      Hashtbl.replace reference (n.Node.pos.Position.level, n.Node.pos.Position.number) n)
    (Net.peers net);
  let agrees (p : Position.t) =
    match
      (Net.peer_at net p, Hashtbl.find_opt reference (p.Position.level, p.Position.number))
    with
    | None, None -> true
    | Some a, Some b -> a == b
    | Some _, None | None, Some _ -> false
  in
  List.for_all
    (fun (n : Node.t) ->
      let p = n.Node.pos in
      agrees p && agrees (Position.left_child p) && agrees (Position.right_child p))
    (Net.peers net)

let position_index_prop =
  membership_prop ~name:"peer_at equals the registered peer at each position"
    positions_match

let suite =
  [
    Alcotest.test_case "bootstrap/root" `Quick test_bootstrap_and_root;
    Alcotest.test_case "register conflicts" `Quick test_register_conflicts;
    Alcotest.test_case "reposition" `Quick test_reposition;
    Alcotest.test_case "refused reposition keeps peer" `Quick
      test_reposition_refused_keeps_peer;
    Alcotest.test_case "unregister" `Quick test_unregister_updates_size_and_ids;
    Alcotest.test_case "random peer skips failed" `Quick test_random_peer_skips_failed;
    Alcotest.test_case "send counts/resolves" `Quick test_send_counts_and_resolves;
    Alcotest.test_case "defer/flush" `Quick test_defer_queues_and_flushes;
    Alcotest.test_case "expect_pos guard" `Quick test_notify_expect_pos_guard;
    Alcotest.test_case "vanished peer send counted" `Quick test_notify_to_vanished_peer_still_counts;
    Alcotest.test_case "shift histogram" `Quick test_shift_histogram;
    Alcotest.test_case "live ids fresh array" `Quick test_live_ids_fresh_array;
    Alcotest.test_case "live ids hand-made ids" `Quick test_live_ids_hand_made_ids;
    QCheck_alcotest.to_alcotest live_ids_prop;
    QCheck_alcotest.to_alcotest position_index_prop;
  ]
