(* Overlay matrix: the comparative-laboratory experiment.

   Every registered overlay answers the same seeded workload behind the
   same [Overlay.S] interface, with messages counted by the same
   [Metrics] — so the tables compare routing structure, not harness
   differences. Four panels:

   - a fig8-style sweep of mean messages per exact-match query vs N
     (against the log2 N yardstick both BATON and Skip Graphs claim);
   - the same sweep for range queries (chord reports "unsupported" —
     its impossibility is part of the comparison);
   - the runtime driver's canonical mixes run per overlay at equal
     message accounting, each judged by the consistency oracle;
   - an adversarial section: every overlay with a crash surface (BATON
     and the Skip Graph) under one combined fault schedule on the
     concurrent runtime — violations expected to hold at zero. *)

module Rng = Baton_util.Rng
module Datagen = Baton_workload.Datagen
module Querygen = Baton_workload.Querygen
module Overlay = P2p_overlay.Overlay
module Driver = Baton_runtime.Driver
module Oracle = Baton_obs.Oracle
module Partition = Baton_sim.Partition

(* Mean messages per exact and per range query at size [n], measured
   through the generic interface: the same key load, the same query
   streams, costs read off the shared metrics counter. *)
let sweep_point (module O : Overlay.S) ~seed ~n ~(p : Params.t) =
  let t = O.create ~seed ~n in
  let msgs () = (O.stats t).Overlay.total in
  let gen = Datagen.uniform (Rng.create ((seed * 31) + 7)) in
  let keys = Datagen.take gen (p.Params.keys_per_node * n) in
  O.bulk_load t (Array.to_list keys);
  let rng = Rng.create (seed + 23) in
  let q = p.Params.queries in
  let before = msgs () in
  Array.iter (fun k -> ignore (O.lookup t k)) (Querygen.exact_targets rng ~keys q);
  let exact = float_of_int (msgs () - before) /. float_of_int q in
  let range =
    if not O.supports_range then None
    else begin
      let spans =
        Querygen.ranges rng ~span:p.Params.range_span ~lo:Datagen.domain_lo
          ~hi:(Datagen.domain_hi - 1) q
      in
      let before = msgs () in
      Array.iter
        (fun { Querygen.lo; hi } -> ignore (O.range_query t ~lo ~hi))
        spans;
      Some (float_of_int (msgs () - before) /. float_of_int q)
    end
  in
  O.check t;
  (exact, range)

(* The combined schedule — partition, subtree crash, gray peers — as in
   Exp_adversarial's worst case. *)
let combined_schedule =
  "partition@500+1200:k=2;subtree@2200;gray@300+2500:peers=4"

let run (p : Params.t) =
  let i = Table.cell_int and f = Table.cell_float in
  let overlay_names = Overlay.names in
  (* Panels 1 + 2 — fig8-style sweeps over N. *)
  let points =
    List.map
      (fun n ->
        let per_overlay =
          List.map
            (fun o ->
              let samples =
                List.init p.Params.repeats (fun r ->
                    sweep_point o ~seed:(p.Params.seed + (r * 1013)) ~n ~p)
              in
              let exact = Common.mean (List.map fst samples) in
              let range =
                match List.filter_map snd samples with
                | [] -> None
                | l -> Some (Common.mean l)
              in
              (exact, range))
            Overlay.all
        in
        (n, per_overlay))
      p.Params.sizes
  in
  let exact_table =
    Table.make ~id:"overlay-exact"
      ~title:"Overlay matrix: messages per exact-match query"
      ~header:(("N" :: overlay_names) @ [ "log2 N" ])
      ~notes:
        [
          "Same seeded key load and query stream per overlay, costs read \
           off the shared message counter; log2 N is the yardstick both \
           BATON and Skip Graphs claim.";
        ]
      (List.map
         (fun (n, per_overlay) ->
           (i n :: List.map (fun (e, _) -> f e) per_overlay)
           @ [ f (log (float_of_int n) /. log 2.) ])
         points)
  in
  let range_table =
    Table.make ~id:"overlay-range"
      ~title:"Overlay matrix: messages per range query"
      ~header:("N" :: overlay_names)
      ~notes:
        [
          "BATON, the multiway tree and the Skip Graph sweep neighbours \
           natively; chord hashes keys and cannot answer a range at all — \
           the impossibility is reported, not papered over.";
        ]
      (List.map
         (fun (n, per_overlay) ->
           i n
           :: List.map
                (fun (_, r) ->
                  match r with Some v -> f v | None -> "unsupported")
                per_overlay)
         points)
  in
  (* Panel 3 — the runtime driver's canonical mixes per overlay, oracle
     on. One row per (mix, overlay). *)
  let n = List.fold_left max 2 p.Params.sizes in
  let ops = max 150 p.Params.queries in
  let mix_rows =
    List.concat_map
      (fun mix ->
        List.map
          (fun overlay ->
            let cfg =
              Driver.config ~overlay ~seed:p.Params.seed
                ~keys_per_node:p.Params.keys_per_node ~ops ~oracle:true ~n
                ~mix ()
            in
            let r = Driver.run cfg in
            let o = Option.get r.Driver.oracle in
            [
              mix.Driver.mix_name;
              overlay;
              i r.Driver.completed;
              i r.Driver.failed;
              i r.Driver.messages;
              f
                (float_of_int r.Driver.messages
                /. float_of_int (max 1 r.Driver.completed));
              i (Oracle.checked o);
              i (Oracle.violation_count o);
            ])
          overlay_names)
      Driver.mixes
  in
  let mixes_table =
    Table.make ~id:"overlay-mixes"
      ~title:"Overlay matrix: driver mixes at equal message accounting"
      ~header:
        [
          "mix"; "overlay"; "ok"; "failed"; "messages"; "msgs/op"; "checked";
          "violations";
        ]
      ~notes:
        [
          Printf.sprintf
            "N = %d peers, %d ops per cell, identical seeded plan per \
             overlay; chord's failures are its range queries (honestly \
             unsupported). Every overlay runs on the fiber runtime; the \
             comparison overlays' queries and inserts share a lock that \
             their joins and leaves take exclusively, so concurrency moves \
             their clock, not their message counts."
            n ops;
        ]
      mix_rows
  in
  (* Panel 4 — adversarial: every overlay with a crash surface under
     the same faulted config; zero oracle violations expected. *)
  let schedule =
    match Partition.parse combined_schedule with
    | Ok s -> s
    | Error msg -> invalid_arg ("Exp_overlay_matrix: " ^ msg)
  in
  let adversarial_rows =
    List.filter_map
      (fun (module O : Overlay.S) ->
        Option.map
          (fun _ ->
            let r =
              Driver.run
                (Driver.config ~overlay:O.name ~seed:p.Params.seed
                   ~keys_per_node:p.Params.keys_per_node ~ops
                   ~fault_schedule:schedule ~oracle:true ~n
                   ~mix:Driver.adversarial ())
            in
            let o = Option.get r.Driver.oracle in
            [
              O.name; i r.Driver.completed; i r.Driver.failed;
              i (Oracle.checked o); i (Oracle.violation_count o);
              i (Oracle.tolerated_count o); i (Oracle.lost_keys o);
              i r.Driver.messages;
            ])
          O.faults)
      Overlay.all
  in
  let adversarial_table =
    Table.make ~id:"overlay-adversarial"
      ~title:"Overlay matrix: adversarial schedules, oracle-judged"
      ~header:
        [
          "overlay"; "ok"; "failed"; "checked"; "violations"; "tolerated";
          "lost keys"; "messages";
        ]
      ~notes:
        [
          "Each overlay with a crash surface runs the combined schedule \
           (partition, subtree crash, gray peers) on the concurrent \
           runtime, same seeded plan: BATON recovers by suspicion-driven \
           repair, the Skip Graph by lazy splice-out, its correlated \
           crash a key-adjacent run of n/20 peers. Chord and the multiway \
           tree have no fault-recovery path and sit this panel out. \
           Violations must be zero.";
        ]
      adversarial_rows
  in
  [ exact_table; range_table; mixes_table; adversarial_table ]
