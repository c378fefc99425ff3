(* Causal message tracing: per-hop context propagation, critical-path
   extraction, and the invariant that the collector is a pure observer
   of the paper's message metric. *)

module Bus = Baton_sim.Bus
module Metrics = Baton_sim.Metrics
module Trace = Baton_obs.Trace
module Json = Baton_obs.Json
module Rng = Baton_util.Rng
module Runtime = Baton_runtime.Runtime
module N = Baton.Network
module Net = Baton.Net
module Search = Baton.Search

let build ~seed n =
  let net = N.build ~seed n in
  let rng = Rng.create (seed + 1) in
  for _ = 1 to 5 * n do
    N.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
  done;
  net

(* A synchronous lookup is one serial conversation: each hop is sent
   only after the previous one delivered, so the causal tree must be a
   single chain and the critical path must equal the message count. *)
let test_serial_lookup_is_a_chain () =
  let net = build ~seed:17 100 in
  let tr = Trace.create () in
  Net.set_tracer net (Some tr);
  let from = Net.random_peer net in
  ignore (Search.lookup net ~from 123_456_789);
  Net.set_tracer net None;
  let ep = Option.get (Trace.latest tr) in
  let hops = Trace.hops ep in
  Alcotest.(check bool) "multi-hop route" true (List.length hops > 1);
  (* Every hop chains under the previous hop's span. *)
  let rec chained prev = function
    | [] -> true
    | (h : Trace.hop) :: rest -> h.ctx.parent = prev && chained h.ctx.span rest
  in
  Alcotest.(check bool) "hops form one causal chain" true (chained (-1) hops);
  let a = Trace.analyze ep in
  Alcotest.(check string) "episode op" "exact" a.Trace.a_op;
  Alcotest.(check int) "origin is the querying peer" from.Baton.Node.id
    a.Trace.a_origin;
  Alcotest.(check int) "no losses" 0 a.Trace.timeouts;
  Alcotest.(check int) "critical path = total msgs (serial)" a.Trace.msgs
    a.Trace.crit_hops;
  (* The breakdowns partition the hop set. *)
  let sum l = List.fold_left (fun acc (_, c) -> acc + c) 0 l in
  Alcotest.(check int) "by_link partitions hops" a.Trace.msgs
    (sum a.Trace.by_link);
  Alcotest.(check int) "by_level partitions hops" a.Trace.msgs
    (sum a.Trace.by_level)

(* The acceptance guard behind the whole design: tracing must be
   metrics-neutral. Same seed, tracer on vs. off — byte-identical
   protocol and auxiliary message counts. *)
let workload ~seed ~traced =
  let net = N.build ~seed 150 in
  let tr = Trace.create () in
  if traced then Net.set_tracer net (Some tr);
  let rng = Rng.create (seed + 1) in
  for _ = 1 to 300 do
    N.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
  done;
  ignore (Search.exact net ~from:(Net.random_peer net) 123_456);
  ignore (Search.range net ~from:(Net.random_peer net) ~lo:1_000 ~hi:40_000_000);
  ignore (N.join net);
  N.leave net (Net.random_peer net).Baton.Node.id;
  ignore (Search.exact net ~from:(Net.random_peer net) 9_999_999);
  let m = Net.metrics net in
  (Metrics.total m, Metrics.aux_total m)

let test_tracing_is_metrics_neutral () =
  let on = workload ~seed:23 ~traced:true in
  let off = workload ~seed:23 ~traced:false in
  Alcotest.(check (pair int int)) "Metrics.total/aux_total unchanged" off on

(* Under the concurrent runtime the collector's critical path must
   agree with the clock: the longest causal chain's completion instant
   IS the virtual time the runtime charges the operation. *)
let runtime_range ~seed =
  let net = build ~seed 120 in
  let rt = Runtime.create net in
  let tr = Trace.create () in
  Trace.use_engine tr (Runtime.engine rt);
  Net.set_tracer net (Some tr);
  let from = Net.random_peer net in
  Runtime.spawn rt
    (fun () ->
      Baton.Search.range
        ~par:(fun l r -> Runtime.both l r)
        net ~from ~lo:100_000_000 ~hi:160_000_000)
    ~on_done:(function Ok _ -> () | Error e -> raise e);
  Runtime.run rt;
  Net.set_tracer net None;
  (Option.get (Trace.latest tr), Runtime.now rt)

let test_crit_path_equals_runtime_completion () =
  let ep, completion = runtime_range ~seed:42 in
  let a = Trace.analyze ep in
  Alcotest.(check bool) "fan-out happened" true (a.Trace.msgs > 2);
  Alcotest.(check bool) "crit path is a subset of the msgs" true
    (a.Trace.crit_hops <= a.Trace.msgs);
  Alcotest.(check (float 1e-9)) "crit_ms = runtime completion instant"
    completion a.Trace.crit_ms;
  (* The dominant chain's hop count matches the reported length. *)
  match a.Trace.chains with
  | [] -> Alcotest.fail "no chains extracted"
  | c :: _ ->
    Alcotest.(check int) "longest chain = crit_hops" a.Trace.crit_hops
      c.Trace.length

let test_causal_jsonl_deterministic () =
  let ep1, _ = runtime_range ~seed:42 in
  let ep2, _ = runtime_range ~seed:42 in
  let a = Trace.episode_jsonl ep1 and b = Trace.episode_jsonl ep2 in
  Alcotest.(check bool) "non-trivial export" true (String.length a > 200);
  Alcotest.(check string) "same seed, byte-identical JSONL" a b;
  Alcotest.(check string) "render is deterministic too" (Trace.render ep1)
    (Trace.render ep2);
  (* One line per hop, then the analysis line, which counts the hops;
     the critical path is a non-empty subset of them, and every parent
     is a span of the same episode. *)
  let lines =
    String.split_on_char '\n' a
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l ->
           match Json.parse l with
           | Ok j -> j
           | Error e -> Alcotest.failf "bad JSONL line: %s" e)
  in
  let int_of k j =
    match Json.member k j with
    | Some (Json.Int i) -> i
    | _ -> Alcotest.failf "no int field %s" k
  in
  match List.rev lines with
  | analysis :: (_ :: _ as rev_hops) ->
    let hops = List.rev rev_hops in
    let msgs = int_of "msgs" analysis and crit = int_of "crit_hops" analysis in
    Alcotest.(check int) "msgs = hop lines" (List.length hops) msgs;
    Alcotest.(check bool)
      "1 <= crit_hops <= msgs" true
      (1 <= crit && crit <= msgs);
    let spans = List.map (int_of "span") hops in
    List.iter
      (fun h ->
        match Json.member "parent" h with
        | Some Json.Null -> ()
        | Some (Json.Int p) ->
          Alcotest.(check bool) "parent is a span of the episode" true
            (List.mem p spans)
        | _ -> Alcotest.fail "malformed parent")
      hops
  | _ -> Alcotest.fail "expected hop lines and an analysis line"

(* Interleaved fibers must not clobber each other's ambient causal
   state: the runtime snapshots a mark at every suspension point. Each
   of the concurrent operations below must come out as its own episode
   whose parent links all stay inside that episode. *)
let test_concurrent_episodes_stay_isolated () =
  let net = build ~seed:5 100 in
  let rt = Runtime.create net in
  let tr = Trace.create () in
  Trace.use_engine tr (Runtime.engine rt);
  Net.set_tracer net (Some tr);
  let keys = [ 111_111_111; 555_555_555; 888_888_888 ] in
  List.iter
    (fun key ->
      let from = Net.random_peer net in
      Runtime.spawn rt
        (fun () -> ignore (Search.exact net ~from key))
        ~on_done:(function Ok _ -> () | Error e -> raise e))
    keys;
  Runtime.run rt;
  Net.set_tracer net None;
  let eps = Trace.episodes tr in
  Alcotest.(check int) "one episode per operation" (List.length keys)
    (List.length eps);
  List.iter
    (fun ep ->
      let hops = Trace.hops ep in
      let spans =
        List.map (fun (h : Trace.hop) -> h.Trace.ctx.span) hops
      in
      List.iter
        (fun (h : Trace.hop) ->
          Alcotest.(check bool)
            (Printf.sprintf "span %d's parent %d stays in its episode"
               h.Trace.ctx.span h.Trace.ctx.parent)
            true
            (h.Trace.ctx.parent = -1 || List.mem h.Trace.ctx.parent spans))
        hops)
    eps;
  (* Span ids are globally unique: no two episodes share one. *)
  let all_spans =
    List.concat_map
      (fun ep -> List.map (fun (h : Trace.hop) -> h.Trace.ctx.span) (Trace.hops ep))
      eps
  in
  Alcotest.(check int) "span ids never collide"
    (List.length all_spans)
    (List.length (List.sort_uniq compare all_spans))

(* Under message loss a retransmission is a *sibling* of the failed
   attempt — same causal parent, fresh span — not its child: the retry
   was caused by whatever caused the original send. *)
let test_retries_are_siblings () =
  let net = build ~seed:31 80 in
  Bus.set_faults (Net.bus net) ~seed:77 ~drop_rate:0.2 ~transient_rate:0. ();
  let tr = Trace.create () in
  Net.set_tracer net (Some tr);
  let rng = Rng.create 99 in
  for _ = 1 to 30 do
    match Search.lookup net ~from:(Net.random_peer net)
            (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
    with
    | (_ : Baton.Search.result) -> ()
    | exception _ -> ()
  done;
  Net.set_tracer net None;
  Bus.clear_faults (Net.bus net);
  let lossy =
    List.filter
      (fun ep ->
        List.exists
          (fun (h : Trace.hop) -> h.Trace.outcome <> Trace.Delivered)
          (Trace.hops ep))
      (Trace.episodes tr)
  in
  Alcotest.(check bool) "at least one episode saw a loss" true (lossy <> []);
  List.iter
    (fun ep ->
      let hops = Trace.hops ep in
      let a = Trace.analyze ep in
      let lost =
        List.filter
          (fun (h : Trace.hop) -> h.Trace.outcome <> Trace.Delivered)
          hops
      in
      Alcotest.(check int) "analysis counts every loss" (List.length lost)
        a.Trace.timeouts;
      List.iter
        (fun (l : Trace.hop) ->
          let sibling =
            List.exists
              (fun (h : Trace.hop) ->
                h.Trace.ctx.span <> l.Trace.ctx.span
                && h.Trace.ctx.parent = l.Trace.ctx.parent
                && h.Trace.dst = l.Trace.dst)
              hops
          in
          Alcotest.(check bool)
            (Printf.sprintf "lost span %d has a sibling retry"
               l.Trace.ctx.span)
            true sibling)
        lost)
    lossy

let suite =
  [
    Alcotest.test_case "serial lookup is a chain" `Quick
      test_serial_lookup_is_a_chain;
    Alcotest.test_case "tracing is metrics-neutral" `Quick
      test_tracing_is_metrics_neutral;
    Alcotest.test_case "crit path = runtime completion" `Quick
      test_crit_path_equals_runtime_completion;
    Alcotest.test_case "causal JSONL deterministic" `Quick
      test_causal_jsonl_deterministic;
    Alcotest.test_case "concurrent episodes isolated" `Quick
      test_concurrent_episodes_stay_isolated;
    Alcotest.test_case "retries are siblings" `Quick test_retries_are_siblings;
  ]
