(* Simulator substrate: event queue, engine, metrics, bus. *)

module Event_queue = Baton_sim.Event_queue
module Engine = Baton_sim.Engine
module Metrics = Baton_sim.Metrics
module Bus = Baton_sim.Bus

let test_queue_orders_by_time () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:3. "c";
  Event_queue.push q ~time:1. "a";
  Event_queue.push q ~time:2. "b";
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "?" in
  (* Bind sequentially: list literals evaluate right to left. *)
  let first = pop () in
  let second = pop () in
  let third = pop () in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] [ first; second; third ];
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_queue_fifo_ties () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    Event_queue.push q ~time:1. i
  done;
  let order = List.init 5 (fun _ -> match Event_queue.pop q with Some (_, v) -> v | None -> 0) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4; 5 ] order

let test_queue_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option (float 0.0))) "peek empty" None (Event_queue.peek_time q);
  Event_queue.push q ~time:4. ();
  Alcotest.(check (option (float 0.0))) "peek" (Some 4.) (Event_queue.peek_time q)

let queue_model_prop =
  let open QCheck2 in
  Test.make ~name:"event queue pops in sorted stable order" ~count:200
    Gen.(list_size (int_bound 50) (int_bound 10))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:(float_of_int t) (i, t)) times;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (_, v) -> drain (v :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      let expected =
        List.mapi (fun i t -> (i, t)) times
        |> List.stable_sort (fun (_, a) (_, b) -> compare a b)
      in
      popped = expected)

(* Model check with pops interleaved between pushes: the heap must
   behave like a stable-sorted list at every intermediate point, not
   just after a push-only phase. Times are drawn from a tiny domain so
   ties (the FIFO case) dominate. *)
let queue_interleaved_prop =
  let open QCheck2 in
  Test.make ~name:"event queue: interleaved push/pop matches stable model"
    ~count:300
    Gen.(list (pair bool (int_bound 5)))
    (fun ops ->
      let q = Event_queue.create () in
      let model = ref [] in
      let next = ref 0 in
      let ins time id =
        let rec go = function
          | [] -> [ (time, id) ]
          | (t', v') :: tl when t' <= time -> (t', v') :: go tl
          | rest -> (time, id) :: rest
        in
        model := go !model
      in
      let step_ok (is_pop, t) =
        if is_pop then (
          let expected =
            match !model with
            | [] -> None
            | x :: tl ->
              model := tl;
              Some x
          in
          Event_queue.pop q = expected)
        else begin
          let id = !next in
          incr next;
          Event_queue.push q ~time:(float_of_int t) id;
          ins (float_of_int t) id;
          true
        end
      in
      List.for_all step_ok ops
      && Event_queue.length q = List.length !model)

let queue_tie_fifo_prop =
  let open QCheck2 in
  Test.make ~name:"event queue: equal-time events pop in insertion order"
    ~count:200
    Gen.(int_range 1 100)
    (fun n ->
      let q = Event_queue.create () in
      for i = 0 to n - 1 do
        Event_queue.push q ~time:7. i
      done;
      List.init n (fun _ ->
          match Event_queue.pop q with Some (_, v) -> v | None -> -1)
      = List.init n Fun.id)

let test_engine_order_and_clock () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2. (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.schedule e ~delay:1. (fun () -> log := ("a", Engine.now e) :: !log);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.0)))) "order with clock"
    [ ("a", 1.); ("b", 2.) ] (List.rev !log)

let test_engine_cascading () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1. (fun () ->
      incr fired;
      Engine.schedule e ~delay:1. (fun () -> incr fired));
  Engine.run e;
  Alcotest.(check int) "cascaded events run" 2 !fired;
  Alcotest.(check bool) "clock at 2" true (Engine.now e = 2.)

let test_engine_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun d -> Engine.schedule e ~delay:d (fun () -> fired := d :: !fired))
    [ 1.; 2.; 3. ];
  Engine.run_until e 2.;
  Alcotest.(check (list (float 0.0))) "only <= horizon" [ 1.; 2. ] (List.rev !fired);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Alcotest.(check bool) "clock at horizon" true (Engine.now e = 2.)

let test_engine_validation () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.) ignore);
  Engine.schedule e ~delay:5. ignore;
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~time:1. ignore)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.record m ~dst:1 ~kind:"a";
  Metrics.record m ~dst:1 ~kind:"b";
  Metrics.record m ~dst:2 ~kind:"a";
  Alcotest.(check int) "total" 3 (Metrics.total m);
  Alcotest.(check int) "kind a" 2 (Metrics.kind_count m "a");
  Alcotest.(check int) "node 1" 2 (Metrics.node_count m 1);
  Alcotest.(check int) "node 1 kind a" 1 (Metrics.node_kind_count m 1 "a");
  Alcotest.(check (list (pair string int))) "kinds" [ ("a", 2); ("b", 1) ] (Metrics.kinds m)

let test_metrics_checkpoint () =
  let m = Metrics.create () in
  Metrics.record m ~dst:1 ~kind:"a";
  let cp = Metrics.checkpoint m in
  Metrics.record m ~dst:1 ~kind:"a";
  Metrics.record m ~dst:1 ~kind:"b";
  Alcotest.(check int) "since total" 2 (Metrics.since m cp);
  Alcotest.(check int) "since kind a" 1 (Metrics.kind_since m cp "a");
  Alcotest.(check int) "since kind b" 1 (Metrics.kind_since m cp "b");
  Alcotest.(check int) "since absent kind" 0 (Metrics.kind_since m cp "zzz");
  Metrics.reset m;
  Alcotest.(check int) "reset" 0 (Metrics.total m)

let test_metrics_event_since_and_reset () =
  let m = Metrics.create () in
  Metrics.event m "lost";
  let cp = Metrics.checkpoint m in
  Metrics.event m "lost";
  Metrics.event m "lost";
  Metrics.event m "stale";
  Metrics.record m ~dst:7 ~kind:"a";
  (* Events never perturb the message counters. *)
  Alcotest.(check int) "events outside total" 1 (Metrics.since m cp);
  Alcotest.(check int) "event_since" 2 (Metrics.event_since m cp "lost");
  Alcotest.(check int) "event_since other" 1 (Metrics.event_since m cp "stale");
  Alcotest.(check int) "event_since absent" 0 (Metrics.event_since m cp "none");
  Alcotest.(check (list (pair string int))) "events sorted"
    [ ("lost", 3); ("stale", 1) ] (Metrics.events m);
  Alcotest.(check (list (pair int int))) "per_node" [ (7, 1) ] (Metrics.per_node m);
  Metrics.reset m;
  Alcotest.(check int) "reset total" 0 (Metrics.total m);
  Alcotest.(check int) "reset events" 0 (Metrics.event_count m "lost");
  Alcotest.(check (list (pair string int))) "reset kinds" [] (Metrics.kinds m);
  Alcotest.(check (list (pair int int))) "reset per_node" [] (Metrics.per_node m);
  (* A pre-reset checkpoint is measured against the zeroed counters. *)
  Metrics.event m "lost";
  Alcotest.(check int) "post-reset event count" 1 (Metrics.event_count m "lost")

let test_bus_send_and_failures () =
  let bus = Bus.create () in
  Bus.send bus ~src:1 ~dst:2 ~kind:"x";
  Bus.send bus ~src:2 ~dst:2 ~kind:"x";
  (* self-send is free *)
  Alcotest.(check int) "one counted" 1 (Metrics.total (Bus.metrics bus));
  Bus.fail bus 3;
  Alcotest.(check bool) "marked failed" true (Bus.is_failed bus 3);
  (* A message to a failed peer is still transmitted (counted) but the
     sender sees it as unreachable. *)
  (match Bus.send bus ~src:1 ~dst:3 ~kind:"x" with
  | () -> Alcotest.fail "expected Unreachable"
  | exception Bus.Unreachable 3 -> ()
  | exception Bus.Unreachable d -> Alcotest.failf "wrong peer %d" d);
  Alcotest.(check int) "dead send counted" 2 (Metrics.total (Bus.metrics bus));
  Bus.revive bus 3;
  Bus.send bus ~src:1 ~dst:3 ~kind:"x";
  Alcotest.(check int) "revived" 0 (Bus.failed_count bus)

(* The hop-suspension seam, with a recording hook standing in for the
   runtime: [send] waits after every transmitted message — delivered,
   timed out or unreachable — and re-raises only after the wait;
   [post] and self-sends never wait; the probe's bracket closes before
   the wait opens. *)
let test_bus_send_waits () =
  let bus = Bus.create () in
  let log = ref [] in
  let note e = log := e :: !log in
  Bus.set_probe bus
    (Some { Bus.before = (fun () -> note "before"); after = (fun () -> note "after") });
  Bus.set_wait bus
    (Some
       (fun ~src ~dst outcome ->
         note
           (Printf.sprintf "wait %d->%d %s" src dst
              (match outcome with
              | Bus.Delivered -> "delivered"
              | Bus.Timed_out -> "timed out"))));
  let events f =
    log := [];
    (match f () with () -> note "returned" | exception e -> note (Printexc.to_string e));
    List.rev !log
  in
  Alcotest.(check (list string)) "delivered"
    [ "before"; "after"; "wait 1->2 delivered"; "returned" ]
    (events (fun () -> Bus.send bus ~src:1 ~dst:2 ~kind:"x"));
  Bus.fail bus 3;
  Alcotest.(check (list string)) "unreachable waits, then raises"
    [ "before"; "after"; "wait 1->3 timed out"; "Baton_sim.Bus.Unreachable(3)" ]
    (events (fun () -> Bus.send bus ~src:1 ~dst:3 ~kind:"x"));
  Bus.set_faults bus ~seed:1 ~drop_rate:1.0 ~transient_rate:0. ();
  Alcotest.(check (list string)) "timeout waits, then raises"
    [ "before"; "after"; "wait 1->2 timed out"; "Baton_sim.Bus.Timeout(2)" ]
    (events (fun () -> Bus.send bus ~src:1 ~dst:2 ~kind:"x"));
  Bus.clear_faults bus;
  Alcotest.(check (list string)) "post never waits"
    [ "before"; "after"; "returned" ]
    (events (fun () -> Bus.post bus ~src:1 ~dst:2 ~kind:"x"));
  Alcotest.(check (list string)) "self-send neither counts nor waits"
    [ "returned" ]
    (events (fun () -> Bus.send bus ~src:2 ~dst:2 ~kind:"x"));
  Alcotest.(check bool) "hook installed" true (Bus.wait_installed bus);
  Alcotest.(check bool) "unhooked copy has none" false
    (Bus.wait_installed (Bus.unhooked bus));
  Bus.set_wait bus None;
  Alcotest.(check (list string)) "no hook, no wait"
    [ "before"; "after"; "returned" ]
    (events (fun () -> Bus.send bus ~src:1 ~dst:2 ~kind:"x"))

let suite =
  [
    Alcotest.test_case "queue orders by time" `Quick test_queue_orders_by_time;
    Alcotest.test_case "queue FIFO ties" `Quick test_queue_fifo_ties;
    Alcotest.test_case "queue peek" `Quick test_queue_peek;
    QCheck_alcotest.to_alcotest queue_model_prop;
    QCheck_alcotest.to_alcotest queue_interleaved_prop;
    QCheck_alcotest.to_alcotest queue_tie_fifo_prop;
    Alcotest.test_case "engine order/clock" `Quick test_engine_order_and_clock;
    Alcotest.test_case "engine cascading" `Quick test_engine_cascading;
    Alcotest.test_case "engine run_until" `Quick test_engine_run_until;
    Alcotest.test_case "engine validation" `Quick test_engine_validation;
    Alcotest.test_case "metrics counters" `Quick test_metrics_counters;
    Alcotest.test_case "metrics checkpoint" `Quick test_metrics_checkpoint;
    Alcotest.test_case "metrics events/reset" `Quick test_metrics_event_since_and_reset;
    Alcotest.test_case "bus send/failures" `Quick test_bus_send_and_failures;
    Alcotest.test_case "bus send waits" `Quick test_bus_send_waits;
  ]
