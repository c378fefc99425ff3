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
   - an adversarial section: BATON under the combined PR-6 fault
     schedule on the concurrent runtime, and the Skip Graph under the
     same episode shapes (key-order partition, gray peers, correlated
     crash burst) driven directly at the bus — both expected to hold
     violations at zero. *)

module Rng = Baton_util.Rng
module Datagen = Baton_workload.Datagen
module Querygen = Baton_workload.Querygen
module Overlay = P2p_overlay.Overlay
module Driver = Baton_runtime.Driver
module Oracle = Baton_obs.Oracle
module Metrics = Baton_sim.Metrics
module Bus = Baton_sim.Bus
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

(* The Skip Graph under the adversarial episode shapes, driven directly
   at the bus (the runtime's fault scheduler is baton-specific, but the
   bus primitives it rests on are shared). Episodes run in disjoint
   windows over the op stream: a symmetric key-order partition, a gray
   window, then a correlated crash burst of adjacent peers — with the
   oracle judging every completed operation over the message clock.
   An op cut off by a fault raises [Bus.Timeout] and is counted failed,
   exactly like a casualty on the runtime path. *)
let skip_graph_adversarial ~seed ~n ~keys_per_node ~range_span ~ops =
  let g =
    Skip_graph.create ~seed ~domain_lo:Datagen.domain_lo
      ~domain_hi:Datagen.domain_hi ()
  in
  for _ = 1 to n do
    ignore (Skip_graph.join g)
  done;
  let gen = Datagen.uniform (Rng.create ((seed * 31) + 7)) in
  let keys = Datagen.take gen (keys_per_node * n) in
  ignore (Skip_graph.bulk_insert g (Array.to_list keys));
  let o = Oracle.create () in
  Oracle.seed_keys o (Array.to_list keys);
  let m = Skip_graph.metrics g in
  let cp = Metrics.checkpoint m in
  let clock () = float_of_int (Metrics.since m cp) in
  let bus = Skip_graph.bus g in
  let rng = Rng.create (seed + 23) in
  let completed = ref 0 and failed = ref 0 in
  (* Mirrors [Driver.adversarial]: 5 exact / 3 range / 2 insert. *)
  let do_op () =
    let started = clock () in
    let r = Rng.int rng 10 in
    if r < 5 then begin
      let k = keys.(Rng.int rng (Array.length keys)) in
      match Skip_graph.lookup g k with
      | found, _ ->
        incr completed;
        ignore
          (Oracle.check_exact o ~started ~finished:(clock ()) ~key:k ~found
             ~complete:true ()
            : Oracle.verdict)
      | exception (Bus.Timeout _ | Failure _) -> incr failed
    end
    else if r < 8 then begin
      let lo =
        Rng.int_in_range rng ~lo:Datagen.domain_lo
          ~hi:(max Datagen.domain_lo (Datagen.domain_hi - range_span))
      in
      let hi = lo + range_span in
      match Skip_graph.range_query g ~lo ~hi with
      | ks, _ ->
        incr completed;
        ignore
          (Oracle.check_range o ~started ~finished:(clock ()) ~lo ~hi ~keys:ks
             ~complete:true ~holes:[] ()
            : Oracle.verdict)
      | exception (Bus.Timeout _ | Failure _) -> incr failed
    end
    else begin
      let k =
        Rng.int_in_range rng ~lo:Datagen.domain_lo ~hi:(Datagen.domain_hi - 1)
      in
      Oracle.begin_mutation o k;
      match Skip_graph.insert g k with
      | _ ->
        incr completed;
        Oracle.commit_insert o k ~started ~finished:(clock ())
      | exception (Bus.Timeout _ | Failure _) ->
        Oracle.abort_mutation o k;
        incr failed
    end
  in
  let burst = max 1 (ops / 4) in
  (* Calm start. *)
  for _ = 1 to burst do
    do_op ()
  done;
  (* Episode 1 — symmetric partition, two islands cut in key order (the
     level-0 list order, so each island is a contiguous key interval). *)
  let order = Skip_graph.peer_ids_by_key g in
  Bus.set_partition bus
    ~assign:(Partition.islands ~order ~k:2)
    ~blocked:(Partition.blocked_pairs ~k:2 ~oneway:false);
  for _ = 1 to burst do
    do_op ()
  done;
  Bus.clear_partition bus;
  (* Episode 2 — gray peers: elevated drop on every hop touching them. *)
  Bus.set_gray_model bus ~seed:(seed + 77);
  let ids = Skip_graph.peer_ids g in
  for i = 0 to min 3 (Array.length ids - 1) do
    Bus.set_gray_peer bus
      ids.(Rng.int rng (Array.length ids))
      ~extra_drop:0.3 ~slow:2.;
    ignore i
  done;
  for _ = 1 to burst do
    do_op ()
  done;
  Bus.clear_gray_model bus;
  (* Episode 3 — correlated crash burst: adjacent peers in key order die
     at one instant (the skip-graph analogue of a subtree crash), their
     data lost. Lazy repair then pays for every splice under the same
     message accounting as the queries. *)
  let order = Skip_graph.peer_ids_by_key g in
  let width = max 1 (Array.length order / 20) in
  let start = Rng.int rng (max 1 (Array.length order - width)) in
  let burst_time = clock () in
  for i = start to min (start + width - 1) (Array.length order - 1) do
    let lost = Skip_graph.crash g order.(i) in
    Oracle.note_lost o ~time:burst_time lost
  done;
  (* Recovery traffic: the remaining ops route around (and splice out)
     the corpses. *)
  for _ = 1 to ops - (3 * burst) do
    do_op ()
  done;
  Skip_graph.check g;
  (!completed, !failed, o, Metrics.since m cp)

(* The combined PR-6 schedule, as in Exp_adversarial's worst case. *)
let baton_schedule = "partition@500+1200:k=2;subtree@2200;gray@300+2500:peers=4"

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
  (* Panel 4 — adversarial: zero oracle violations expected from both
     fault-capable overlays. *)
  let baton_row =
    let schedule =
      match Partition.parse baton_schedule with
      | Ok s -> s
      | Error msg -> invalid_arg ("Exp_overlay_matrix: " ^ msg)
    in
    let cfg =
      Driver.config ~seed:p.Params.seed ~keys_per_node:p.Params.keys_per_node
        ~ops ~fault_schedule:schedule ~oracle:true ~n ~mix:Driver.adversarial
        ()
    in
    let r = Driver.run cfg in
    let o = Option.get r.Driver.oracle in
    [
      "baton"; i r.Driver.completed; i r.Driver.failed; i (Oracle.checked o);
      i (Oracle.violation_count o); i (Oracle.tolerated_count o);
      i (Oracle.lost_keys o); i r.Driver.messages;
    ]
  in
  let skip_row =
    let completed, failed, o, messages =
      skip_graph_adversarial ~seed:p.Params.seed ~n
        ~keys_per_node:p.Params.keys_per_node ~range_span:p.Params.range_span
        ~ops
    in
    [
      "skip-graph"; i completed; i failed; i (Oracle.checked o);
      i (Oracle.violation_count o); i (Oracle.tolerated_count o);
      i (Oracle.lost_keys o); i messages;
    ]
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
          "BATON runs the combined PR-6 schedule on the concurrent runtime \
           (suspicion-driven repair); the Skip Graph faces the same episode \
           shapes — key-order partition, gray peers, correlated crash burst \
           — driven at the bus, recovering by lazy splice-out. Chord and \
           the multiway tree have no fault-recovery path and sit this panel \
           out. Violations must be zero.";
        ]
      [ baton_row; skip_row ]
  in
  [ exact_table; range_table; mixes_table; adversarial_table ]
