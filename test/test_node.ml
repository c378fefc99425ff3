(* Node state helpers and the Check diagnostics themselves. *)

module Node = Baton.Node
module Link = Baton.Link
module Position = Baton.Position
module Range = Baton.Range
module Routing_table = Baton.Routing_table
module N = Baton.Network
module Net = Baton.Net
module Check = Baton.Check

let make_node ?(id = 1) ?(level = 2) ?(number = 2) () =
  Node.create ~id
    ~pos:(Position.make ~level ~number)
    ~range:(Range.make ~lo:0 ~hi:100)

let test_fresh_node () =
  let n = make_node () in
  Alcotest.(check bool) "leaf" true (Node.is_leaf n);
  Alcotest.(check bool) "not root" false (Node.is_root n);
  Alcotest.(check int) "level" 2 (Node.level n);
  Alcotest.(check int) "load" 0 (Node.load n);
  Alcotest.(check bool) "empty tables are not full at (2,2)" false (Node.tables_full n)

let test_info_snapshot () =
  let n = make_node () in
  let i = Node.info n in
  Alcotest.(check int) "peer" 1 i.Link.peer;
  Alcotest.(check bool) "no children flags" true
    ((not i.Link.has_left_child) && not i.Link.has_right_child);
  Node.set_child n `Left (Some i);
  let i2 = Node.info n in
  Alcotest.(check bool) "left flag tracks state" true i2.Link.has_left_child;
  Alcotest.(check bool) "spare slot helper" true (Link.has_spare_child_slot i2);
  Node.set_child n `Right (Some i);
  Alcotest.(check bool) "both children" true (Link.has_both_children (Node.info n))

let test_accessors () =
  let n = make_node () in
  let other = Node.info (make_node ~id:2 ~level:2 ~number:1 ()) in
  Node.set_adjacent n `Left (Some other);
  Alcotest.(check bool) "adjacent set" true (Node.adjacent n `Left = Some other);
  Alcotest.(check bool) "other side empty" true (Node.adjacent n `Right = None);
  Alcotest.(check int) "left table side size" 1 (Routing_table.size (Node.table n `Left))

(* The uniform kind-addressed slot store: every kind round-trips
   through [set_link]/[link] independently — setting one slot never
   aliases another — and the per-kind fold of [drop_links_for_peer]
   clears exactly the matching slots. *)
let test_link_roundtrip_every_kind () =
  let n = make_node () in
  List.iter
    (fun k -> Alcotest.(check bool) "fresh slot empty" true (Node.link n k = None))
    Link.all_kinds;
  let infos =
    List.mapi
      (fun i k -> (k, Node.info (make_node ~id:(10 + i) ~level:3 ~number:(1 + i) ())))
      Link.all_kinds
  in
  List.iter (fun (k, i) -> Node.set_link n k (Some i)) infos;
  List.iter
    (fun (k, i) ->
      let what = Format.asprintf "%a round-trips" Link.pp_kind k in
      Alcotest.(check bool) what true (Node.link n k = Some i))
    infos;
  (* The named accessors are views of the same slots. *)
  Alcotest.(check bool) "parent view" true
    (Node.parent n = Node.link n Link.Parent);
  Alcotest.(check bool) "child view" true
    (Node.child n `Right = Node.link n (Link.Child `Right));
  Alcotest.(check bool) "adjacent view" true
    (Node.adjacent n `Left = Node.link n (Link.Adjacent `Left));
  (* Dropping one peer clears only its slots. *)
  Node.drop_links_for_peer n 10;
  List.iter
    (fun (k, i) ->
      let expect = if i.Link.peer = 10 then None else Some i in
      let what = Format.asprintf "%a after drop" Link.pp_kind k in
      Alcotest.(check bool) what true (Node.link n k = expect))
    infos;
  (* Clearing every kind empties the store. *)
  List.iter (fun k -> Node.set_link n k None) Link.all_kinds;
  List.iter
    (fun k -> Alcotest.(check bool) "cleared" true (Node.link n k = None))
    Link.all_kinds

let test_update_and_drop_links () =
  let n = make_node () in
  let target = Node.info (make_node ~id:9 ~level:2 ~number:1 ()) in
  Node.set_parent n (Some target);
  Node.set_adjacent n `Left (Some target);
  Routing_table.set (Node.table n `Left) 0 (Some target);
  Node.update_links_for_peer n 9 (fun i -> { i with Link.has_left_child = true });
  (match Node.parent n with
  | Some i -> Alcotest.(check bool) "parent refreshed" true i.Link.has_left_child
  | None -> Alcotest.fail "parent lost");
  Node.drop_links_for_peer n 9;
  Alcotest.(check bool) "parent dropped" true (Node.parent n = None);
  Alcotest.(check bool) "adjacent dropped" true (Node.adjacent n `Left = None);
  Alcotest.(check int) "table slot dropped" 0 (Routing_table.filled_count (Node.table n `Left))

let test_reset_tables () =
  let n = make_node () in
  Routing_table.set (Node.table n `Left) 0 (Some (Node.info n));
  Node.reset_tables n;
  Alcotest.(check int) "cleared" 0 (Routing_table.filled_count (Node.table n `Left))

let test_neighbor_entries_order () =
  let n = make_node ~level:3 ~number:4 () in
  let mk num = Node.info (make_node ~id:(100 + num) ~level:3 ~number:num ()) in
  Routing_table.set (Node.table n `Left) 1 (Some (mk 2));
  Routing_table.set (Node.table n `Right) 0 (Some (mk 5));
  let peers = List.map (fun (_, i) -> i.Link.peer) (Node.neighbor_entries n) in
  Alcotest.(check (list int)) "left table first" [ 102; 105 ] peers

(* The checker must actually detect violations, not just pass. *)
let test_check_detects_corruption () =
  let net = N.build ~seed:1 20 in
  Check.all net;
  let victim = Net.random_peer net in
  let saved = victim.Node.range in
  victim.Node.range <- Range.make ~lo:saved.Range.lo ~hi:(saved.Range.hi + 7);
  Alcotest.(check bool) "ranges check trips" true
    (match Check.ranges net with
    | () -> Position.is_root victim.Node.pos && false
    | exception Failure _ -> true);
  victim.Node.range <- saved;
  Check.all net

let test_check_detects_stale_link () =
  let net = N.build ~seed:2 20 in
  let victim =
    List.find (fun (n : Node.t) -> Option.is_some (Node.parent n)) (Net.peers net)
  in
  let saved = Node.parent victim in
  Node.set_parent victim
    (Option.map (fun i -> { i with Link.range = Range.make ~lo:0 ~hi:1 }) saved);
  Alcotest.(check bool) "strict links check trips" true
    (match Check.links ~strict:true net with
    | () -> false
    | exception Failure _ -> true);
  (* Non-strict mode tolerates stale cached ranges. *)
  Check.links ~strict:false net;
  Node.set_parent victim saved;
  Check.all net

let test_check_detects_missing_link () =
  let net = N.build ~seed:3 20 in
  let victim =
    List.find (fun (n : Node.t) -> Option.is_some (Node.parent n)) (Net.peers net)
  in
  let saved = Node.parent victim in
  Node.set_parent victim None;
  Alcotest.(check bool) "missing link detected" true
    (match Check.links ~strict:false net with
    | () -> false
    | exception Failure _ -> true);
  Node.set_parent victim saved

(* The failure text of [Check.links] is part of its output (monitor
   event details quote it): pin it for one routing-table slot and one
   adjacent link. *)
let test_check_links_messages () =
  let net = N.build ~seed:4 40 in
  let bogus = 99_999 in
  let owner =
    List.find
      (fun (n : Node.t) -> Option.is_some (Routing_table.get (Node.table n `Left) 1))
      (Net.peers net)
  in
  let table = Node.table owner `Left in
  let saved = Routing_table.get table 1 in
  let real = Option.get saved in
  Routing_table.set table 1 (Some { real with Link.peer = bogus });
  Alcotest.check_raises "table slot"
    (Failure
       (Printf.sprintf "links: node %d table slot 1 points at peer 99999, occupant is %d"
          owner.Node.id real.Link.peer))
    (fun () -> Check.links net);
  Routing_table.set table 1 saved;
  let owner =
    List.find (fun (n : Node.t) -> Option.is_some (Node.adjacent n `Right)) (Net.peers net)
  in
  let saved = Node.adjacent owner `Right in
  let real = Option.get saved in
  Node.set_adjacent owner `Right (Some { real with Link.peer = bogus });
  Alcotest.check_raises "right adjacent"
    (Failure
       (Printf.sprintf
          "links: node %d right adjacent points at peer 99999, occupant is %d"
          owner.Node.id real.Link.peer))
    (fun () -> Check.links ~strict:false net);
  Node.set_adjacent owner `Right saved;
  Check.all net

(* --- Check.balanced against the per-node scan ------------------------ *)

let balance_outcome check net =
  match check net with () -> Ok () | exception Failure m -> Error m

let balance_outcome_t = Alcotest.(result unit string)

(* [balanced] must agree with [balanced_scan]: both pass, or both raise
   the same text. *)
let check_balance_agrees ?expected what net =
  let scan = balance_outcome Check.balanced_scan net in
  Option.iter (fun e -> Alcotest.check balance_outcome_t (what ^ " (scan)") e scan) expected;
  Alcotest.check balance_outcome_t what scan (balance_outcome Check.balanced net)

(* A network holding one peer at each given (level, number). *)
let net_at positions =
  let net = Net.create ~domain:(Range.make ~lo:0 ~hi:1000) () in
  List.iter
    (fun (level, number) ->
      Net.register net
        (Node.create ~id:(Net.fresh_id net) ~pos:(Position.make ~level ~number)
           ~range:(Range.make ~lo:0 ~hi:1000)))
    positions;
  net

let test_balanced_hand_broken () =
  check_balance_agrees "empty" (net_at []) ~expected:(Ok ());
  check_balance_agrees "balanced" (net_at [ (0, 1); (1, 1); (1, 2); (2, 3) ]) ~expected:(Ok ());
  check_balance_agrees "one unbalanced node"
    (net_at [ (0, 1); (1, 1); (2, 1) ])
    ~expected:(Error "balanced: node 0 at (0,1) has subtree heights 1 and -1");
  (* (1,1) and the root are both unbalanced: the scan names whichever
     comes first in [Net.peers] order, and so must the pass. *)
  let two = net_at [ (0, 1); (1, 1); (1, 2); (2, 1); (3, 1) ] in
  Alcotest.(check bool) "two unbalanced nodes fail" true
    (Result.is_error (balance_outcome Check.balanced_scan two));
  check_balance_agrees "two unbalanced nodes" two;
  (* (3,1)'s parent position is empty: the pass from the root never
     reaches it, so the scan decides. *)
  check_balance_agrees "balanced orphan"
    (net_at [ (0, 1); (1, 1); (1, 2); (3, 1) ])
    ~expected:(Ok ());
  check_balance_agrees "unbalanced orphan subtree"
    (net_at [ (0, 1); (1, 1); (1, 2); (3, 1); (4, 1); (5, 1) ])
    ~expected:(Error "balanced: node 3 at (3,1) has subtree heights 1 and -1");
  check_balance_agrees "no root" (net_at [ (1, 1); (2, 1); (3, 1) ])
    ~expected:(Error "balanced: node 0 at (1,1) has subtree heights 1 and -1")

(* Random subsets of the positions down to level 4, orphans and missing
   roots included. *)
let balanced_random_prop =
  let open QCheck2 in
  let all = List.concat (List.init 5 (fun l -> List.init (1 lsl l) (fun i -> (l, i + 1)))) in
  let chosen keep = List.filteri (fun i _ -> keep.(i)) all in
  Test.make ~name:"balanced agrees with the per-node scan on random position sets"
    ~count:300
    ~print:(fun keep ->
      String.concat " " (List.map (fun (l, n) -> Printf.sprintf "(%d,%d)" l n) (chosen keep)))
    Gen.(array_repeat (List.length all) (frequencyl [ (4, true); (1, false) ]))
    (fun keep ->
      let net = net_at (chosen keep) in
      balance_outcome Check.balanced net = balance_outcome Check.balanced_scan net)

let test_balanced_built_networks () =
  List.iter
    (fun (seed, n) ->
      let net = N.build ~seed n in
      check_balance_agrees (Printf.sprintf "build seed %d n %d" seed n) net ~expected:(Ok ());
      let rng = Baton_util.Rng.create seed in
      for _ = 1 to n / 3 do
        N.leave net (Baton_util.Rng.pick rng (Net.live_ids net))
      done;
      check_balance_agrees (Printf.sprintf "after leaves seed %d" seed) net ~expected:(Ok ()))
    [ (1, 1); (2, 2); (3, 17); (4, 64); (5, 300) ]

let suite =
  [
    Alcotest.test_case "fresh node" `Quick test_fresh_node;
    Alcotest.test_case "info snapshot" `Quick test_info_snapshot;
    Alcotest.test_case "accessors" `Quick test_accessors;
    Alcotest.test_case "link round-trips every kind" `Quick
      test_link_roundtrip_every_kind;
    Alcotest.test_case "update/drop links" `Quick test_update_and_drop_links;
    Alcotest.test_case "reset tables" `Quick test_reset_tables;
    Alcotest.test_case "neighbour entry order" `Quick test_neighbor_entries_order;
    Alcotest.test_case "check detects range corruption" `Quick test_check_detects_corruption;
    Alcotest.test_case "check detects stale link" `Quick test_check_detects_stale_link;
    Alcotest.test_case "check detects missing link" `Quick test_check_detects_missing_link;
    Alcotest.test_case "check links failure text" `Quick test_check_links_messages;
    Alcotest.test_case "balanced on hand-broken trees" `Quick test_balanced_hand_broken;
    Alcotest.test_case "balanced on built networks" `Quick test_balanced_built_networks;
    QCheck_alcotest.to_alcotest balanced_random_prop;
  ]
