(* Node join: Algorithm 1, range/content splitting, link wiring. *)

module N = Baton.Network
module Net = Baton.Net
module Join = Baton.Join
module Node = Baton.Node
module Check = Baton.Check
module Position = Baton.Position
module Range = Baton.Range
module Store = Baton_util.Sorted_store

let test_bootstrap () =
  let net = N.create ~seed:1 () in
  let root = Join.join_new_network net in
  Alcotest.(check bool) "root position" true (Position.is_root root.Node.pos);
  Alcotest.(check bool) "owns the domain" true
    (Range.equal root.Node.range (Net.domain net));
  Alcotest.(check int) "size 1" 1 (Net.size net);
  Check.all net

let test_second_join_becomes_left_child () =
  let net = N.create ~seed:1 () in
  let root = Join.join_new_network net in
  let stats = Join.join net ~via:root in
  Alcotest.(check int) "accepted by root" root.Node.id stats.Join.acceptor;
  let y = Net.peer net stats.Join.new_peer in
  Alcotest.(check bool) "left child slot" true
    (Position.equal y.Node.pos (Position.left_child Position.root));
  (* The left child takes the lower half; ranges tile. *)
  Alcotest.(check bool) "y below root" true
    (Range.touches_left y.Node.range root.Node.range);
  Check.all net

let test_invariants_during_growth () =
  let net = N.create ~seed:3 () in
  ignore (Join.join_new_network net);
  for i = 2 to 80 do
    ignore (Join.join net ~via:(Net.random_peer net));
    Alcotest.(check int) "size grows" i (Net.size net);
    Check.all net
  done

let test_join_search_cost_stays_low () =
  (* Paper Fig 8(a): the join-search cost is far below the tree height
     and barely grows with N. *)
  let net = N.build ~seed:5 300 in
  let costs = ref [] in
  for _ = 1 to 30 do
    let s = Join.join net ~via:(Net.random_peer net) in
    costs := float_of_int s.Join.search_msgs :: !costs
  done;
  let mean = List.fold_left ( +. ) 0. !costs /. 30. in
  Alcotest.(check bool) "mean below height" true (mean < float_of_int (Check.height net))

let test_join_update_cost_bound () =
  (* Paper Section III-A: < 6 log N messages to update routing tables. *)
  let net = N.build ~seed:7 200 in
  for _ = 1 to 30 do
    let s = Join.join net ~via:(Net.random_peer net) in
    let n = float_of_int (Net.size net) in
    let bound = 6. *. (log n /. log 2.) +. 8. in
    Alcotest.(check bool)
      (Printf.sprintf "%d <= %.0f" s.Join.update_msgs bound)
      true
      (float_of_int s.Join.update_msgs <= bound)
  done

let test_content_split_on_join () =
  let net = N.create ~seed:9 () in
  let root = Join.join_new_network net in
  (* Preload the root with keys, then join: the child takes about half. *)
  for k = 1 to 100 do
    Store.insert root.Node.store (k * 1_000_000)
  done;
  let stats = Join.join net ~via:root in
  let y = Net.peer net stats.Join.new_peer in
  Alcotest.(check int) "child got half" 50 (Node.load y);
  Alcotest.(check int) "acceptor kept half" 50 (Node.load root);
  Check.all net;
  (* All child keys are below all acceptor keys (left child case). *)
  let max_child = Option.get (Store.max_key y.Node.store) in
  let min_root = Option.get (Store.min_key root.Node.store) in
  Alcotest.(check bool) "split ordered" true (max_child < min_root)

let test_adjacent_links_after_joins () =
  let net = N.build ~seed:11 50 in
  (* Check.links verifies adjacents; also verify the in-order walk
     matches the chain of right-adjacent links. *)
  let nodes = Check.in_order_nodes net in
  let rec chain = function
    | (a : Node.t) :: (b : Node.t) :: rest ->
      (match Node.adjacent a `Right with
      | Some link -> Alcotest.(check int) "right adjacent" b.Node.id link.Baton.Link.peer
      | None -> Alcotest.fail "missing right adjacent");
      (match Node.adjacent b `Left with
      | Some link -> Alcotest.(check int) "left adjacent" a.Node.id link.Baton.Link.peer
      | None -> Alcotest.fail "missing left adjacent");
      chain (b :: rest)
    | [ last ] ->
      Alcotest.(check bool) "rightmost has no successor" true
        (Node.adjacent last `Right = None)
    | [] -> ()
  in
  chain nodes

let test_acceptor_has_full_tables () =
  let net = N.create ~seed:13 () in
  ignore (Join.join_new_network net);
  for _ = 2 to 60 do
    let acceptor, _ = Join.find_join_node net ~via:(Net.random_peer net) in
    Alcotest.(check bool) "tables full at acceptor" true (Node.tables_full acceptor);
    Alcotest.(check bool) "has spare slot" true
      (Option.is_none (Node.child acceptor `Left)
      || Option.is_none (Node.child acceptor `Right));
    ignore (Join.join net ~via:(Net.random_peer net))
  done

(* A dropped child link hides an occupied position: the acceptor
   refuses the join before giving away any range or key. *)
let test_accept_refuses_occupied_position () =
  let net = N.create ~seed:1 () in
  let root = Join.join_new_network net in
  ignore (Join.join net ~via:root);
  List.iter (Store.insert root.Node.store) [ 600_000_000; 700_000_000 ];
  Node.set_child root `Left None;
  let range = root.Node.range and keys = Store.to_list root.Node.store in
  Alcotest.check_raises "refused" (Invalid_argument "Join.accept: position occupied")
    (fun () -> ignore (Join.accept net ~acceptor:root (Net.fresh_id net)));
  Alcotest.(check bool) "range kept" true (Range.equal range root.Node.range);
  Alcotest.(check (list int)) "keys kept" keys (Store.to_list root.Node.store)

let test_deterministic_build () =
  let a = N.build ~seed:17 100 and b = N.build ~seed:17 100 in
  Alcotest.(check int) "same message count" (N.messages a) (N.messages b);
  Alcotest.(check int) "same height" (N.height a) (N.height b)

let suite =
  [
    Alcotest.test_case "bootstrap" `Quick test_bootstrap;
    Alcotest.test_case "second join" `Quick test_second_join_becomes_left_child;
    Alcotest.test_case "invariants during growth" `Quick test_invariants_during_growth;
    Alcotest.test_case "join search cost low" `Quick test_join_search_cost_stays_low;
    Alcotest.test_case "join update cost bound" `Quick test_join_update_cost_bound;
    Alcotest.test_case "content split" `Quick test_content_split_on_join;
    Alcotest.test_case "adjacent chain" `Quick test_adjacent_links_after_joins;
    Alcotest.test_case "acceptor premise" `Quick test_acceptor_has_full_tables;
    Alcotest.test_case "deterministic build" `Quick test_deterministic_build;
    Alcotest.test_case "accept refuses an occupied position" `Quick
      test_accept_refuses_occupied_position;
  ]
