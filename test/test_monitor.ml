(* Continuous health monitor: threshold semantics (ok / degraded /
   violated with persistence), churn-aware load sampling, and
   deterministic export. *)

module Monitor = Baton.Monitor
module Metrics = Baton_sim.Metrics
module Json = Baton_obs.Json
module Rng = Baton_util.Rng
module N = Baton.Network
module Net = Baton.Net
module Node = Baton.Node
module Link = Baton.Link
module Position = Baton.Position
module Routing_table = Baton.Routing_table
module Check = Baton.Check
module Wiring = Baton.Wiring

(* Wide-open thresholds so only the component under test can fail. *)
let lax = { Monitor.default_thresholds with max_skew = 1e9; max_stale_rate = 1. }

let build ~seed n =
  let net = N.build ~seed n in
  let rng = Rng.create (seed + 1) in
  for _ = 1 to 3 * n do
    N.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
  done;
  net

let test_healthy_network_stays_ok () =
  let net = build ~seed:3 30 in
  let mon = Monitor.create ~thresholds:lax net in
  for i = 1 to 3 do
    let s = Monitor.tick mon ~time:(float_of_int i *. 100.) in
    Alcotest.(check string) "overall ok"
      (Monitor.level_label Monitor.Ok)
      (Monitor.level_label s.Monitor.overall)
  done;
  Alcotest.(check int) "three ticks" 3 (Monitor.tick_count mon);
  Alcotest.(check int) "no transitions" 0 (List.length (Monitor.events mon));
  let s = Option.get (Monitor.latest mon) in
  Alcotest.(check int) "sampled population" 30 s.Monitor.nodes;
  Alcotest.(check int) "sampled height" (Baton.Check.height net)
    s.Monitor.height;
  Alcotest.(check bool) "load observed" true (s.Monitor.skew >= 1.)

(* A failing threshold reports Degraded first and escalates to
   Violated only after [persist] consecutive failing samples. *)
let test_persistent_failure_escalates () =
  let net = build ~seed:3 30 in
  (* Skew of any loaded network is >= 1, so this threshold always fails. *)
  let mon =
    Monitor.create
      ~thresholds:{ lax with max_skew = 0.5; persist = 3 }
      net
  in
  let levels =
    List.map
      (fun i ->
        let s = Monitor.tick mon ~time:(float_of_int i) in
        List.assoc Monitor.c_load s.Monitor.levels)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list string)) "degraded, degraded, violated"
    [ "degraded"; "degraded"; "violated" ]
    (List.map Monitor.level_label levels);
  Alcotest.(check string) "current load status" "violated"
    (Monitor.level_label (Monitor.current mon Monitor.c_load));
  Alcotest.(check string) "overall mirrors the worst" "violated"
    (Monitor.level_label (Monitor.current mon Monitor.c_overall));
  (* Exactly two transitions per stream: ok->degraded, degraded->violated. *)
  let of_comp c =
    List.filter
      (fun (e : Monitor.event) -> String.equal e.Monitor.component c)
      (Monitor.events mon)
  in
  Alcotest.(check int) "load transitions" 2
    (List.length (of_comp Monitor.c_load));
  Alcotest.(check int) "overall transitions" 2
    (List.length (of_comp Monitor.c_overall));
  match of_comp Monitor.c_load with
  | [ e1; e2 ] ->
    Alcotest.(check string) "first detail names the skew" "skew"
      (String.sub e1.Monitor.detail 0 4);
    Alcotest.(check bool) "escalation ordering" true
      (Monitor.level_rank e2.Monitor.after
      > Monitor.level_rank e1.Monitor.after)
  | _ -> Alcotest.fail "expected two load events"

(* A transient failure recovers: degraded -> ok without ever touching
   violated. Driven through the cache-staleness component, whose
   per-interval rate we can pulse deterministically. *)
let test_transient_failure_recovers () =
  let net = build ~seed:3 30 in
  let mon =
    Monitor.create ~thresholds:{ lax with max_stale_rate = 0.; persist = 3 } net
  in
  let m = Net.metrics net in
  let s1 = Monitor.tick mon ~time:100. in
  Alcotest.(check string) "baseline ok" "ok"
    (Monitor.level_label s1.Monitor.overall);
  (* One stale probe lands in the next interval... *)
  Metrics.event m Baton.Msg.ev_cache_stale;
  let s2 = Monitor.tick mon ~time:200. in
  Alcotest.(check bool) "stale rate observed" true (s2.Monitor.stale_rate > 0.);
  Alcotest.(check string) "one bad interval degrades" "degraded"
    (Monitor.level_label (List.assoc Monitor.c_cache s2.Monitor.levels));
  (* ...and the following interval is quiet again. *)
  let s3 = Monitor.tick mon ~time:300. in
  Alcotest.(check string) "recovers immediately" "ok"
    (Monitor.level_label s3.Monitor.overall);
  let transitions =
    List.map
      (fun (e : Monitor.event) ->
        ( e.Monitor.component,
          Monitor.level_label e.Monitor.before,
          Monitor.level_label e.Monitor.after ))
      (Monitor.events mon)
  in
  Alcotest.(check (list (triple string string string)))
    "degraded -> ok, never violated"
    [
      (Monitor.c_cache, "ok", "degraded");
      (Monitor.c_overall, "ok", "degraded");
      (Monitor.c_cache, "degraded", "ok");
      (Monitor.c_overall, "degraded", "ok");
    ]
    transitions

(* Load skew under churn: departed peers keep their historical message
   counts in [Metrics.per_node], but present imbalance is a property of
   the peers still in the overlay — the monitor must filter. The
   busiest peer leaves, so the filtered and unfiltered max/mean
   ratios differ and dropping the filter shows. *)
let test_skew_ignores_departed_peers () =
  let net = build ~seed:9 24 in
  let mon = Monitor.create ~thresholds:lax net in
  let s = Monitor.tick mon ~time:1. in
  Alcotest.(check int) "pre-churn population" 24 s.Monitor.nodes;
  let ratio loads =
    let total = List.fold_left ( + ) 0 loads in
    let mean = float_of_int total /. float_of_int (List.length loads) in
    float_of_int (List.fold_left max 0 loads) /. mean
  in
  let busiest =
    List.fold_left
      (fun (best, c) (node, count) ->
        if count > c then (node, count) else (best, c))
      (-1, 0) (Metrics.per_node (Net.metrics net))
    |> fst
  in
  N.leave net busiest;
  let s = Monitor.tick mon ~time:2. in
  Alcotest.(check int) "post-churn population" 23 s.Monitor.nodes;
  let per_node = Metrics.per_node (Net.metrics net) in
  Alcotest.(check bool) "the busiest peer's count stays in per_node" true
    (List.mem_assoc busiest per_node);
  let live =
    List.filter_map
      (fun (node, count) ->
        Option.map (fun _ -> count) (Net.peer_opt net node))
      per_node
  in
  Alcotest.(check int) "one count per registered peer" 23 (List.length live);
  Alcotest.(check (float 0.)) "skew = max/mean over registered peers"
    (ratio live) s.Monitor.skew;
  Alcotest.(check bool) "unfiltered ratio differs" true
    (ratio (List.map snd per_node) <> s.Monitor.skew)

let test_ring_bounds_samples () =
  let net = build ~seed:3 12 in
  let mon = Monitor.create ~capacity:4 ~thresholds:lax net in
  for i = 1 to 10 do
    ignore (Monitor.tick mon ~time:(float_of_int i))
  done;
  Alcotest.(check int) "count sees everything" 10 (Monitor.tick_count mon);
  let kept = Monitor.samples mon in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length kept);
  Alcotest.(check (list (float 0.)))
    "oldest evicted first" [ 7.; 8.; 9.; 10. ]
    (List.map (fun s -> s.Monitor.s_time) kept);
  Alcotest.(check (float 0.)) "latest is the newest tick" 10.
    (Option.get (Monitor.latest mon)).Monitor.s_time

let health_doc ~seed =
  let net = build ~seed 30 in
  let mon = Monitor.create ~thresholds:lax net in
  for i = 1 to 5 do
    ignore (Monitor.tick mon ~time:(float_of_int i *. 50.))
  done;
  Json.to_string (Monitor.json mon)

let test_json_shape_and_determinism () =
  let doc = health_doc ~seed:3 in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "mentions %S" needle) true
        (let re = Str.regexp_string needle in
         try
           ignore (Str.search_forward re doc 0);
           true
         with Not_found -> false))
    [
      "\"samples\""; "\"events\""; "\"load\""; "\"summary\""; "\"ticks\":5";
      "\"final\":\"ok\""; "\"overall\""; "\"skew\""; "\"stale_rate\"";
    ];
  (* Per-peer load is each sample's [skew] (and the [load] component's
     level); the report carries no second load series. *)
  (match Json.parse doc with
  | Ok report ->
    Alcotest.(check (list string)) "report sections"
      [ "events"; "samples"; "summary" ]
      (match report with
      | Json.Obj fields -> List.sort String.compare (List.map fst fields)
      | _ -> [])
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "byte-identical across same-seed monitors" doc
    (health_doc ~seed:3)

let test_create_validates () =
  let net = N.build ~seed:3 4 in
  Alcotest.check_raises "capacity" (Invalid_argument "Monitor.create: capacity < 1")
    (fun () -> ignore (Monitor.create ~capacity:0 net));
  Alcotest.check_raises "persist" (Invalid_argument "Monitor.create: persist < 1")
    (fun () ->
      ignore
        (Monitor.create
           ~thresholds:{ Monitor.default_thresholds with persist = 0 }
           net))


(* --- Write stamps -------------------------------------------------------- *)

let info peer pos =
  {
    Link.peer;
    pos;
    range = Baton.Range.make ~lo:1 ~hi:2;
    has_left_child = false;
    has_right_child = false;
  }

let test_node_writers_bump_the_stamp () =
  let pos = Position.make ~level:2 ~number:2 in
  let n = Node.create ~id:1 ~pos ~range:(Baton.Range.make ~lo:1 ~hi:9) in
  let bumps what f =
    let before = n.Node.stamp in
    f ();
    Alcotest.(check bool) what true (n.Node.stamp > before)
  and keeps what f =
    let before = n.Node.stamp in
    f ();
    Alcotest.(check int) what before n.Node.stamp
  in
  let p = info 7 Position.root in
  bumps "set_link" (fun () -> Node.set_link n Link.Parent (Some p));
  bumps "set_parent" (fun () -> Node.set_parent n (Some p));
  bumps "set_child" (fun () -> Node.set_child n `Left None);
  bumps "set_adjacent" (fun () -> Node.set_adjacent n `Right (Some p));
  bumps "reset_tables" (fun () -> Node.reset_tables n);
  bumps "update_links_for_peer, matching" (fun () ->
      Node.update_links_for_peer n 7 Fun.id);
  keeps "update_links_for_peer, no match" (fun () ->
      Node.update_links_for_peer n 8 Fun.id);
  bumps "drop_links_for_peer, matching" (fun () -> Node.drop_links_for_peer n 7);
  keeps "drop_links_for_peer, no match" (fun () -> Node.drop_links_for_peer n 7)

let test_table_writers_bump_the_stamp () =
  let owner = Position.make ~level:3 ~number:5 in
  let t = Routing_table.create owner `Right in
  let bumps what f =
    let before = Routing_table.stamp t in
    f ();
    Alcotest.(check bool) what true (Routing_table.stamp t > before)
  and keeps what f =
    let before = Routing_table.stamp t in
    f ();
    Alcotest.(check int) what before (Routing_table.stamp t)
  in
  let q = info 4 (Position.make ~level:3 ~number:6) in
  bumps "set" (fun () -> Routing_table.set t 0 (Some q));
  bumps "update_peer, matching" (fun () -> Routing_table.update_peer t 4 Fun.id);
  keeps "update_peer, no match" (fun () -> Routing_table.update_peer t 5 Fun.id);
  bumps "remove_peer, matching" (fun () -> Routing_table.remove_peer t 4);
  keeps "remove_peer, no match" (fun () -> Routing_table.remove_peer t 4);
  (* A node's table writes land on the table's stamp, not the node's. *)
  let n = Node.create ~id:1 ~pos:owner ~range:(Baton.Range.make ~lo:1 ~hi:9) in
  let before = n.Node.stamp in
  Routing_table.set (Node.table n `Left) 0 (Some q);
  Alcotest.(check int) "node stamp" before n.Node.stamp;
  Alcotest.(check int) "table stamp" 1 (Routing_table.stamp (Node.table n `Left))

(* --- The incremental audit equals the full one -------------------------- *)

type step =
  | Join of bool  (** [true]: notifications deferred across a tick *)
  | Leave of bool
  | Crash_repair
  | Forced_join
  | Forced_leave
  | Insert
  | Forget of bool
      (** unregister a non-root peer ([true]: put a fresh node at its
          position), re-wire from the god view every peer that fails
          but one, tick, then restore *)

let print_step = function
  | Join d -> Printf.sprintf "Join %b" d
  | Leave d -> Printf.sprintf "Leave %b" d
  | Crash_repair -> "Crash_repair"
  | Forced_join -> "Forced_join"
  | Forced_leave -> "Forced_leave"
  | Insert -> "Insert"
  | Forget r -> Printf.sprintf "Forget %b" r

let print_script (n, seed, steps) =
  Printf.sprintf "(%d, %d, [ %s ])" n seed
    (String.concat "; " (List.map print_step steps))

let gen_step =
  let open QCheck2.Gen in
  frequency
    [
      (3, map (fun d -> Join d) bool);
      (3, map (fun d -> Leave d) bool);
      (2, return Crash_repair);
      (1, return Forced_join);
      (1, return Forced_leave);
      (2, return Insert);
      (3, map (fun r -> Forget r) bool);
    ]

let probe f =
  match f () with
  | () -> None
  | exception Failure m -> Some m
  | exception e -> Some (Printexc.to_string e)

(* The full checks behind each structural component, run now. *)
let full_verdicts net =
  [
    ( "balance",
      probe (fun () ->
          Check.balanced net;
          Check.height_bound net) );
    ( "tiling",
      probe (fun () ->
          Check.tree_shape net;
          Check.ranges net) );
    ("links", probe (fun () -> Check.links ~strict:false net));
  ]

exception Disagree of string

let disagree fmt = Printf.ksprintf (fun m -> raise (Disagree m)) fmt

(* Tick, and hold every structural verdict, the new events' details and
   the height to the full checks at this instant. *)
let tick_agrees mon net ~time =
  let seen = List.length (Monitor.events mon) in
  let s = Monitor.tick mon ~time in
  let fresh = List.filteri (fun i _ -> i >= seen) (Monitor.events mon) in
  List.iter
    (fun (c, verdict) ->
      let level = List.assoc c s.Monitor.levels in
      if (level <> Monitor.Ok) <> Option.is_some verdict then
        disagree "t=%g %s: monitor %s, full check %s" time c
          (Monitor.level_label level)
          (Option.value verdict ~default:"passes");
      List.iter
        (fun (e : Monitor.event) ->
          if String.equal e.Monitor.component c && e.Monitor.after <> Monitor.Ok
          then
            let full = Option.value verdict ~default:"" in
            if not (String.equal e.Monitor.detail full) then
              disagree "t=%g %s detail %S, full check %S" time
                c e.Monitor.detail full)
        fresh)
    (full_verdicts net);
  if s.Monitor.height <> Check.height net then
    disagree "t=%g height %d, Check.height %d" time
      s.Monitor.height (Check.height net)

let fails net n = Option.is_some (probe (fun () -> Check.peer_links ~strict:false net n))

(* Re-wire every peer failing its links from the god view, sparing
   [except]. *)
let rewire ?except net =
  List.iter
    (fun (n : Node.t) ->
      if Some n.Node.id <> except && fails net n then
        Wiring.rebuild_links net n ~kind:Baton.Msg.restructure)
    (Net.peers net)

(* Run a script on a built network with a monitor tick after every
   step (and inside the steps that hold state mid-operation). *)
let audit_script (n, seed, steps) =
  let net = N.build ~seed n in
  let rng = Rng.create (seed + 1) in
  let mon = Monitor.create ~thresholds:lax net in
  let clock = ref 0. in
  let tick () =
    clock := !clock +. 1.;
    tick_agrees mon net ~time:!clock
  in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let deferred d f =
    Net.set_defer net d;
    f ();
    if d then begin
      tick ();
      Net.set_defer net false;
      Net.flush_deferred net
    end
  in
  let leaves () = List.filter Node.is_leaf (Check.in_order_nodes net) in
  let step = function
    | Join d -> deferred d (fun () -> ignore (N.join net))
    | Leave d ->
      if Net.size net > 2 then
        deferred d (fun () -> N.leave net (pick (Net.peers net)).Node.id)
    | Crash_repair ->
      if Net.size net > 3 then begin
        let v = pick (Net.peers net) in
        Baton.Failure.crash net v;
        tick ();
        N.repair net v.Node.id
      end
    | Forced_join ->
      ignore
        (Baton.Restructure.forced_join net ~parent:(pick (leaves ()))
           (Net.fresh_id net))
    | Forced_leave -> (
      (* Hand the range and content to an in-order neighbour first, as
         the balancer does. *)
      let v = pick (Net.peers net) in
      match Node.adjacent v `Left, Node.adjacent v `Right with
      | (Some l, _ | None, Some l) when Net.size net > 3 && not (Node.is_root v) ->
        let heir = Net.peer net l.Link.peer in
        Baton_util.Sorted_store.absorb heir.Node.store v.Node.store;
        Node.set_range heir (Baton.Range.merge heir.Node.range v.Node.range);
        Baton.Restructure.forced_leave net v
      | _ -> ())
    | Insert -> N.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
    | Forget replace -> (
      match List.filter (fun v -> not (Node.is_root v)) (Net.peers net) with
      | [] -> ()
      | candidates ->
        let victim = pick candidates in
        Net.unregister net victim;
        let fresh =
          if replace then begin
            let f =
              Node.create ~id:(Net.fresh_id net) ~pos:victim.Node.pos
                ~range:victim.Node.range
            in
            Net.register net f;
            Some f
          end
          else None
        in
        (match List.filter (fails net) (Net.peers net) with
        | [] -> ()
        | failing -> rewire ~except:(pick failing).Node.id net);
        tick ();
        Option.iter (Net.unregister net) fresh;
        Net.register net victim;
        rewire net)
  in
  List.iter
    (fun s ->
      step s;
      tick ())
    steps

let gen_script =
  QCheck2.Gen.(
    triple (int_range 2 150) (int_bound 100_000) (list_size (int_bound 25) gen_step))

(* Shrunk failures of the property with one class of position readers
   deleted from the monitor: each fixture catches its class. *)
let reader_fixtures =
  [
    ("routing-table neighbours", (2, 0, [ Forced_leave; Join false; Forget false ]));
    ("ancestor above a left chain", (2, 0, [ Join false; Forget false; Join true ]));
    ("ancestor above a right chain", (2, 0, [ Forget false ]));
    ("left child and its right chain", (3, 0, [ Join false; Forget true ]));
    ("right child and its left chain", (7, 0, [ Leave false; Leave true ]));
  ]

let test_reader_fixtures () =
  let failed =
    List.filter_map
      (fun (what, script) ->
        match audit_script script with
        | () -> None
        | exception Disagree m -> Some (what ^ ": " ^ m))
      reader_fixtures
  in
  if failed <> [] then Alcotest.fail (String.concat "\n" failed)

let incremental_prop =
  QCheck2.Test.make ~name:"incremental audit equals the full checks" ~count:40
    ~long_factor:25 ~print:print_script gen_script (fun script ->
      match audit_script script with
      | () -> true
      | exception Disagree m -> QCheck2.Test.fail_report m)

let suite =
  [
    Alcotest.test_case "healthy network stays ok" `Quick
      test_healthy_network_stays_ok;
    Alcotest.test_case "persistent failure escalates" `Quick
      test_persistent_failure_escalates;
    Alcotest.test_case "transient failure recovers" `Quick
      test_transient_failure_recovers;
    Alcotest.test_case "skew ignores departed peers" `Quick
      test_skew_ignores_departed_peers;
    Alcotest.test_case "sample ring bounded" `Quick test_ring_bounds_samples;
    Alcotest.test_case "json shape + determinism" `Quick
      test_json_shape_and_determinism;
    Alcotest.test_case "create validates" `Quick test_create_validates;
    Alcotest.test_case "node writers bump the stamp" `Quick
      test_node_writers_bump_the_stamp;
    Alcotest.test_case "table writers bump the stamp" `Quick
      test_table_writers_bump_the_stamp;
    Alcotest.test_case "reader-class fixtures" `Quick test_reader_fixtures;
    QCheck_alcotest.to_alcotest incremental_prop;
  ]
