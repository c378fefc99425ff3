module Rng = Baton_util.Rng
module Datagen = Baton_workload.Datagen
module Querygen = Baton_workload.Querygen

type point = {
  insert : float;
  delete : float;
  exact : float;
  range : float;
  (* Tail percentiles of per-operation hop counts (BATON only), shown
     when [Params.telemetry] is set; the mean columns above are the
     same either way. *)
  exact_p95 : float;
  exact_p99 : float;
  range_p95 : float;
  range_p99 : float;
}

let no_tail = { insert = 0.; delete = 0.; exact = 0.; range = 0.;
                exact_p95 = 0.; exact_p99 = 0.; range_p95 = 0.; range_p99 = 0. }

(* Nearest-rank percentile of the operations' hop counts, a hop being a
   first transmission: every message the operation paid, cache traffic
   included, minus its retransmissions. *)
let tail_percentile (results : Baton.Search.result array) p =
  let h = Baton_util.Histogram.create () in
  Array.iter
    (fun (r : Baton.Search.result) ->
      Baton_util.Histogram.add h (r.Baton.Search.msgs - r.Baton.Search.retries))
    results;
  if Baton_util.Histogram.total h = 0 then 0.
  else float_of_int (Baton_util.Histogram.percentile h p)

let baton_point ~seed ~n ~(p : Params.t) =
  let net, keys = Common.build_baton ~seed ~n ~keys_per_node:p.Params.keys_per_node () in
  let rng = Rng.create (seed + 23) in
  let gen = Datagen.uniform (Rng.create (seed + 29)) in
  let q = p.Params.queries in
  let inserts =
    Array.init q (fun _ ->
        let st = Baton.Update.insert net ~from:(Baton.Net.random_peer net) (Datagen.next gen) in
        float_of_int st.Baton.Update.hops)
  in
  let targets = Querygen.exact_targets rng ~keys q in
  let deletes =
    Array.map
      (fun k ->
        let st = Baton.Update.delete net ~from:(Baton.Net.random_peer net) k in
        float_of_int st.Baton.Update.hops)
      targets
  in
  let exacts =
    Array.map
      (fun k -> Baton.Search.lookup net ~from:(Baton.Net.random_peer net) k)
      (Querygen.exact_targets rng ~keys q)
  in
  let spans =
    Querygen.ranges rng ~span:p.Params.range_span ~lo:Datagen.domain_lo
      ~hi:(Datagen.domain_hi - 1) q
  in
  let ranges =
    Array.map
      (fun { Querygen.lo; hi } ->
        Baton.Search.range net ~from:(Baton.Net.random_peer net) ~lo ~hi)
      spans
  in
  let module S = Baton_util.Stats in
  let mean_hops results =
    S.mean
      (Array.map
         (fun (r : Baton.Search.result) -> float_of_int r.Baton.Search.hops)
         results)
  in
  { insert = S.mean inserts; delete = S.mean deletes; exact = mean_hops exacts;
    range = mean_hops ranges;
    exact_p95 = tail_percentile exacts 95.;
    exact_p99 = tail_percentile exacts 99.;
    range_p95 = tail_percentile ranges 95.;
    range_p99 = tail_percentile ranges 99. }

let chord_point ~seed ~n ~(p : Params.t) =
  let t, keys = Common.build_chord ~seed ~n ~keys_per_node:p.Params.keys_per_node in
  let rng = Rng.create (seed + 23) in
  let gen = Datagen.uniform (Rng.create (seed + 29)) in
  let q = p.Params.queries in
  let inserts = Array.init q (fun _ -> float_of_int (Chord.insert t (Datagen.next gen))) in
  let deletes =
    Array.map (fun k -> float_of_int (Chord.delete t k)) (Querygen.exact_targets rng ~keys q)
  in
  let exacts =
    Array.map
      (fun k -> float_of_int (snd (Chord.lookup t k)))
      (Querygen.exact_targets rng ~keys q)
  in
  let module S = Baton_util.Stats in
  { no_tail with
    insert = S.mean inserts; delete = S.mean deletes; exact = S.mean exacts;
    range = float_of_int (Chord.range_scan_cost t) }

let multiway_point ~seed ~n ~(p : Params.t) =
  let t, keys = Common.build_multiway ~seed ~n ~keys_per_node:p.Params.keys_per_node in
  let rng = Rng.create (seed + 23) in
  let gen = Datagen.uniform (Rng.create (seed + 29)) in
  let q = p.Params.queries in
  let inserts = Array.init q (fun _ -> float_of_int (Multiway.insert t (Datagen.next gen))) in
  let deletes =
    Array.map
      (fun k -> float_of_int (snd (Multiway.delete t k)))
      (Querygen.exact_targets rng ~keys q)
  in
  let exacts =
    Array.map
      (fun k -> float_of_int (snd (Multiway.lookup t k)))
      (Querygen.exact_targets rng ~keys q)
  in
  let spans =
    Querygen.ranges rng ~span:p.Params.range_span ~lo:Datagen.domain_lo
      ~hi:(Datagen.domain_hi - 1) q
  in
  let ranges =
    Array.map
      (fun { Querygen.lo; hi } -> float_of_int (snd (Multiway.range_query t ~lo ~hi)))
      spans
  in
  let module S = Baton_util.Stats in
  { no_tail with
    insert = S.mean inserts; delete = S.mean deletes; exact = S.mean exacts;
    range = S.mean ranges }

let run (p : Params.t) =
  let points =
    List.map
      (fun n ->
        let samples =
          List.init p.Params.repeats (fun r ->
              let seed = p.Params.seed + (r * 1013) in
              ( baton_point ~seed ~n ~p,
                chord_point ~seed ~n ~p,
                multiway_point ~seed ~n ~p ))
        in
        let avg f = Common.mean (List.map f samples) in
        ( n,
          (avg (fun (b, _, _) -> b.insert), avg (fun (_, c, _) -> c.insert),
           avg (fun (_, _, m) -> m.insert)),
          (avg (fun (b, _, _) -> b.delete), avg (fun (_, c, _) -> c.delete),
           avg (fun (_, _, m) -> m.delete)),
          (avg (fun (b, _, _) -> b.exact), avg (fun (_, c, _) -> c.exact),
           avg (fun (_, _, m) -> m.exact)),
          (avg (fun (b, _, _) -> b.range), avg (fun (_, c, _) -> c.range),
           avg (fun (_, _, m) -> m.range)),
          (avg (fun (b, _, _) -> b.exact_p95), avg (fun (b, _, _) -> b.exact_p99)),
          (avg (fun (b, _, _) -> b.range_p95), avg (fun (b, _, _) -> b.range_p99)) ))
      p.Params.sizes
  in
  let f = Table.cell_float and i = Table.cell_int in
  (* The telemetry columns ride alongside the paper's means; they exist
     only with [Params.telemetry], so the default tables are
     byte-identical to the pre-telemetry ones. *)
  let tail cols = if p.Params.telemetry then cols else [] in
  let fig8c =
    Table.make ~id:"fig8c" ~title:"Messages per insert and delete operation"
      ~header:
        [ "N"; "baton ins"; "chord ins"; "mtree ins"; "baton del"; "chord del";
          "mtree del" ]
      (List.map
         (fun (n, (bi, ci, mi), (bd, cd, md), _, _, _, _) ->
           [ i n; f bi; f ci; f mi; f bd; f cd; f md ])
         points)
  in
  let fig8d =
    Table.make ~id:"fig8d" ~title:"Messages per exact-match query"
      ~header:([ "N"; "baton"; "chord"; "mtree" ] @ tail [ "baton p95"; "baton p99" ])
      (List.map
         (fun (n, _, _, (b, c, m), _, (p95, p99), _) ->
           [ i n; f b; f c; f m ] @ tail [ f p95; f p99 ])
         points)
  in
  let fig8e =
    Table.make ~id:"fig8e" ~title:"Messages per range query"
      ~header:
        ([ "N"; "baton"; "mtree"; "chord (full scan)" ]
        @ tail [ "baton p95"; "baton p99" ])
      ~notes:
        [ "Chord hashes keys, so a range query must visit every peer; the \
           column reports that broadcast cost." ]
      (List.map
         (fun (n, _, _, _, (b, c, m), _, (p95, p99)) ->
           [ i n; f b; f m; f c ] @ tail [ f p95; f p99 ])
         points)
  in
  (fig8c, fig8d, fig8e)
