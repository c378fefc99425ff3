module Rng = Baton_util.Rng
module Metrics = Baton_sim.Metrics
module Datagen = Baton_workload.Datagen
module Heat = Baton_obs.Heat

(* Demand attribution under Zipf query sweeps: the measured "what skew
   looks like before we act" baseline for replica-aware routing and
   hotspot shedding. A heat instrument on the network
   attributes every delivered message (serve vs. route) and sketches
   the heavy hitters; each row is one theta of the sweep over a fresh
   instrument, so the table shows how concentration grows with skew
   while the serve/route split — a property of the tree, not the
   workload — stays put. *)
let demand (p : Params.t) =
  let n = List.hd p.Params.sizes in
  let net = Baton.Network.build ~seed:(p.Params.seed + 7) n in
  let gen_rng = Rng.create (p.Params.seed + 211) in
  let queries = max 200 p.Params.queries in
  (* Queries target a fixed stored-key population by Zipf rank — the
     flash-crowd shape: repeats concentrate on a few concrete keys.
     (Datagen.zipf spreads a hot rank over a splittable neighbourhood,
     which is right for insert load but hides heavy *hitters*.) *)
  let population =
    Array.init (p.Params.keys_per_node * n) (fun _ ->
        Rng.int_in_range gen_rng ~lo:Datagen.domain_lo
          ~hi:(Datagen.domain_hi - 1))
  in
  Array.iter
    (fun k -> ignore (Baton.Update.insert net ~from:(Baton.Net.random_peer net) k))
    population;
  let rows =
    List.map
      (fun theta ->
        let h = Heat.create ~lo:Datagen.domain_lo ~hi:Datagen.domain_hi () in
        Baton.Net.set_heat net (Some h);
        let z = Baton_util.Zipf.create ~n:(Array.length population) ~theta in
        for _ = 1 to queries do
          let key = population.(Baton_util.Zipf.sample z gen_rng - 1) in
          ignore (Baton.Search.lookup net ~from:(Baton.Net.random_peer net) key)
        done;
        Baton.Net.set_heat net None;
        let serve = Heat.class_total h Heat.Serve in
        let route = Heat.class_total h Heat.Route in
        let handled = serve + route in
        let pct c =
          if handled = 0 then "-"
          else Printf.sprintf "%.1f%%" (100. *. float_of_int c /. float_of_int handled)
        in
        let top_guaranteed =
          match Heat.Sketch.entries (Heat.sketch h) with
          | (key, count, err) :: _ ->
            Printf.sprintf "%d (>=%d hits)" key (count - err)
          | [] -> "-"
        in
        [
          Printf.sprintf "%.1f" theta;
          Printf.sprintf "%.3f" (Heat.topk_share h);
          top_guaranteed;
          pct serve;
          pct route;
          Table.cell_float (Heat.skew h);
        ])
      [ 0.5; 0.8; 1.0; 1.2 ]
  in
  Baton.Check.all net;
  Table.make ~id:"demand-heat"
    ~title:"Demand attribution and heavy hitters under Zipf query sweeps"
    ~header:
      [
        "theta"; "top-16 share"; "hottest key"; "serve"; "route";
        "decayed skew";
      ]
    ~notes:
      [
        Printf.sprintf
          "N = %d peers, %d exact queries per theta over a fresh heat \
           instrument; top-16 share is the sketch's guaranteed demand \
           fraction, serve/route splits every delivered protocol message, \
           and skew is max/mean of the exponentially-decayed per-peer \
           demand counters. The item-2 baseline: shedding must cut the \
           high-theta skew without moving the message totals."
          n queries;
      ]
    rows

let run (p : Params.t) =
  let n = List.hd p.Params.sizes in
  let capacity = p.Params.balance_capacity in
  let net = Baton.Network.build ~seed:p.Params.seed n in
  let cfg = Baton.Balance.default_config ~capacity in
  let rng = Rng.create (p.Params.seed + 111) in
  let m = Baton.Net.metrics net in
  let wave_volume = capacity * n / 16 in
  let domain = Datagen.domain_hi - Datagen.domain_lo in
  (* Each wave concentrates 80% of its keys in a different 2%-wide
     region of the domain. *)
  let hot_centres = [ 0.15; 0.55; 0.85; 0.30; 0.70 ] in
  let rows =
    List.mapi
      (fun i centre ->
        let hot_lo = Datagen.domain_lo + int_of_float (centre *. float_of_int domain) in
        let hot_width = domain / 50 in
        let cp = Metrics.checkpoint m in
        for _ = 1 to wave_volume do
          let key =
            if Rng.int rng 10 < 8 then hot_lo + Rng.int rng hot_width
            else Rng.int_in_range rng ~lo:Datagen.domain_lo ~hi:(Datagen.domain_hi - 1)
          in
          let st = Baton.Update.insert net ~from:(Baton.Net.random_peer net) key in
          ignore
            (Baton.Balance.maybe_balance net cfg (Baton.Net.peer net st.Baton.Update.node))
        done;
        let balance_msgs =
          Metrics.kind_since m cp Baton.Msg.balance
          + Metrics.kind_since m cp Baton.Msg.restructure
        in
        let max_load =
          List.fold_left (fun acc node -> max acc (Baton.Node.load node)) 0
            (Baton.Net.peers net)
        in
        [
          Table.cell_int (i + 1);
          Printf.sprintf "%.0f%%" (centre *. 100.);
          Table.cell_int max_load;
          Table.cell_float (float_of_int balance_msgs /. float_of_int wave_volume);
        ])
      hot_centres
  in
  Baton.Check.all net;
  Table.make ~id:"moving-hotspot"
    ~title:"Load balancing under a hotspot that moves between waves"
    ~header:[ "wave"; "hot region at"; "max load after wave"; "balance msgs/insert" ]
    ~notes:
      [
        Printf.sprintf
          "N = %d peers, capacity %d; each wave inserts %d keys, 80%% of \
           them inside a 2%%-wide hot region that moves."
          n capacity wave_volume;
      ]
    rows
