(* Route-cache effectiveness: the same pre-generated workload executed
   twice from the same seed — once with the cache disabled, once
   enabled — so the message difference is attributable to the cache
   alone. Every run is checked against a flat oracle: a cached shortcut
   is never allowed to change an answer, only its cost. *)

module Rng = Baton_util.Rng
module Zipf = Baton_util.Zipf
module Metrics = Baton_sim.Metrics
module Datagen = Baton_workload.Datagen
module Net = Baton.Net
module Msg = Baton.Msg

type op =
  | Lookup of int
  | Range of int * int
  | Insert of int

type cell = {
  theta : float;
  churn_pct : int;
  ops : int;
  hits : int;
  misses : int;
  stale : int;
  hit_rate : float;
  base_msgs : int;  (** protocol messages, cache disabled *)
  cache_msgs : int;  (** protocol messages, cache enabled *)
  aux_msgs : int;  (** probe/invalidation traffic, cache enabled *)
  reduction_pct : float;
      (** (base - (cache + aux)) / base — the cache pays for its own
          bookkeeping traffic before claiming any saving *)
  wrong_answers : int;
  partial : int;
}

(* One deterministic operation schedule per cell, shared verbatim by
   the baseline and the cached run: 80% exact lookups on Zipf-ranked
   keys, 10% ranges anchored at a hot key, 10% fresh inserts. A range
   ends at the domain's last key at the latest: past it the network
   owns nothing, so the rest would come back as a hole. *)
let gen_schedule ~seed ~theta ~ops ~keys ~range_span =
  let rng = Rng.create (seed + 223) in
  (* Rank 1 is the hottest key. *)
  let zipf = Zipf.create ~n:(Array.length keys) ~theta in
  let pick () = keys.(Zipf.sample zipf rng - 1) in
  let fresh = Datagen.uniform (Rng.create (seed + 229)) in
  let last_key = Baton.Network.default_domain.Baton.Range.hi - 1 in
  Array.init ops (fun _ ->
      let d = Rng.int rng 100 in
      if d < 80 then Lookup (pick ())
      else if d < 90 then
        let lo = pick () in
        Range (lo, min (lo + range_span) last_key)
      else Insert (Datagen.next fresh))

(* Multiset oracle mirroring the stores' contents. *)
let truth_add truth k =
  Hashtbl.replace truth k (1 + Option.value ~default:0 (Hashtbl.find_opt truth k))

let truth_range truth lo hi =
  Hashtbl.fold
    (fun k c acc -> if k >= lo && k <= hi then List.init c (fun _ -> k) @ acc else acc)
    truth []
  |> List.sort compare

type run = {
  msgs : int;
  aux : int;
  r_hits : int;
  r_misses : int;
  r_stale : int;
  wrong : int;
  incomplete : int;
}

(* Execute the schedule on a freshly built network. Churn is
   interleaved by credit: [churn_pct] membership events per 100
   operations, drawn from a run-local RNG so both runs see the same
   churn (the cache consumes no randomness). Client origins are a
   fixed, deterministic peer subset and never leave, so learned
   shortcuts accumulate somewhere stable. *)
let execute ~seed ~n ~keys_per_node ~capacity ~churn_pct ~cache schedule =
  let net = Baton.Network.build ~seed n in
  let gen = Datagen.uniform (Rng.create (seed + 211)) in
  let keys = Datagen.take gen (keys_per_node * n) in
  ignore (Baton.Update.bulk_insert net ~from:(Net.random_peer net) (Array.to_list keys));
  let truth = Hashtbl.create (Array.length keys) in
  Array.iter (truth_add truth) keys;
  let client_ids =
    let ids = Array.copy (Net.live_ids net) in
    Array.sort compare ids;
    Array.sub ids 0 (min 6 (Array.length ids))
  in
  if cache then Net.enable_route_cache ~capacity net;
  let m = Net.metrics net in
  let cp = Metrics.checkpoint m in
  let crng = Rng.create (seed + 227) in
  let credit = ref 0 and turn = ref 0 in
  let client () =
    let c = client_ids.(!turn mod Array.length client_ids) in
    incr turn;
    Net.peer net c
  in
  let wrong = ref 0 and incomplete = ref 0 in
  Array.iter
    (fun op ->
      credit := !credit + churn_pct;
      while !credit >= 100 do
        credit := !credit - 100;
        if Rng.bool crng then
          ignore (Baton.Join.join net ~via:(client ()))
        else begin
          let victims =
            Array.of_seq
              (Seq.filter
                 (fun id -> not (Array.exists (Int.equal id) client_ids))
                 (Array.to_seq (Net.live_ids net)))
          in
          if Array.length victims > 1 then
            ignore (Baton.Leave.leave net (Net.peer net (Rng.pick crng victims)))
        end
      done;
      match op with
      | Lookup k ->
        let r = Baton.Search.lookup net ~from:(client ()) k in
        if r.Baton.Search.found <> Hashtbl.mem truth k then incr wrong
      | Range (lo, hi) ->
        let r = Baton.Search.range net ~from:(client ()) ~lo ~hi in
        if not r.Baton.Search.complete then incr incomplete
        else if r.Baton.Search.keys <> truth_range truth lo hi then incr wrong
      | Insert k ->
        ignore (Baton.Update.insert net ~from:(client ()) k);
        truth_add truth k)
    schedule;
  Baton.Check.all net;
  {
    msgs = Metrics.since m cp;
    aux = Metrics.aux_since m cp;
    r_hits = Metrics.event_since m cp Msg.ev_cache_hit;
    r_misses = Metrics.event_since m cp Msg.ev_cache_miss;
    r_stale = Metrics.event_since m cp Msg.ev_cache_stale;
    wrong = !wrong;
    incomplete = !incomplete;
  }

let run_cell ~seed ~n ~keys_per_node ~ops ~capacity ~range_span ~theta ~churn_pct =
  let gen = Datagen.uniform (Rng.create (seed + 211)) in
  let keys = Datagen.take gen (keys_per_node * n) in
  let schedule = gen_schedule ~seed ~theta ~ops ~keys ~range_span in
  let go cache =
    execute ~seed ~n ~keys_per_node ~capacity ~churn_pct ~cache schedule
  in
  let base = go false in
  let cached = go true in
  assert (base.aux = 0 && base.r_hits = 0 && base.r_misses = 0);
  let consults = cached.r_hits + cached.r_misses + cached.r_stale in
  {
    theta;
    churn_pct;
    ops;
    hits = cached.r_hits;
    misses = cached.r_misses;
    stale = cached.r_stale;
    hit_rate =
      (if consults = 0 then 0.
       else float_of_int cached.r_hits /. float_of_int consults);
    base_msgs = base.msgs;
    cache_msgs = cached.msgs;
    aux_msgs = cached.aux;
    reduction_pct =
      (if base.msgs = 0 then 0.
       else
         100.
         *. float_of_int (base.msgs - (cached.msgs + cached.aux))
         /. float_of_int base.msgs);
    wrong_answers = base.wrong + cached.wrong;
    partial = cached.incomplete;
  }

let thetas = [ 0.5; 0.7; 0.9; 1.1 ]
let churn_rates = [ 0; 5; 10 ]

let default_capacity = 192

let cells ~seed ~n ~keys_per_node ~ops ~range_span () =
  if n < 1 then invalid_arg "Exp_cache.cells: n < 1";
  if keys_per_node < 1 then invalid_arg "Exp_cache.cells: keys_per_node < 1";
  if ops < 1 then invalid_arg "Exp_cache.cells: ops < 1";
  if range_span < 0 then invalid_arg "Exp_cache.cells: range_span < 0";
  let cell = run_cell ~seed ~n ~keys_per_node ~ops ~capacity:default_capacity ~range_span in
  List.map (fun theta -> cell ~theta ~churn_pct:0) thetas
  @ List.map (fun churn_pct -> cell ~theta:0.9 ~churn_pct) churn_rates

let run (p : Params.t) =
  let n = List.hd p.Params.sizes in
  let ops = max 400 p.Params.queries in
  let all =
    cells ~seed:p.Params.seed ~n ~keys_per_node:p.Params.keys_per_node ~ops
      ~range_span:p.Params.range_span ()
  in
  let row (c : cell) =
    [
      Printf.sprintf "%.1f" c.theta;
      Table.cell_int c.churn_pct;
      Printf.sprintf "%.2f" c.hit_rate;
      Table.cell_int c.base_msgs;
      Table.cell_int (c.cache_msgs + c.aux_msgs);
      Printf.sprintf "%.1f" c.reduction_pct;
      Table.cell_int c.stale;
      Table.cell_int c.wrong_answers;
      Table.cell_int c.partial;
    ]
  in
  Table.make ~id:"route-cache"
    ~title:"Route cache: message reduction vs skew and churn"
    ~header:
      [ "theta"; "churn%"; "hit rate"; "msgs off"; "msgs on (incl. aux)";
        "reduction%"; "stale"; "wrong"; "partial" ]
    ~notes:
      [
        Printf.sprintf
          "N = %d peers, %d ops per cell (80%% lookup / 10%% range / 10%% \
           insert), cache capacity %d, fixed client origins; both runs of \
           a cell replay one schedule from one seed, so the message delta \
           is the cache's doing. Probe and invalidation traffic counts \
           against the saving but never into the paper-parity total."
          n ops default_capacity;
      ]
    (List.map row all)

(* Machine-readable document for BENCH_cache.json: deterministic field
   order, same seed in means byte-identical bytes out. *)
let bench_json ~seed ~n ~keys_per_node ~ops ~range_span cells =
  let module J = Baton_obs.Json in
  J.Obj
    [
      ("schema", J.String Baton_runtime.Report_check.cache_schema);
      ("seed", J.Int seed);
      ("n", J.Int n);
      ("keys_per_node", J.Int keys_per_node);
      ("ops", J.Int ops);
      ("range_span", J.Int range_span);
      ("capacity", J.Int default_capacity);
      ( "runs",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("theta", J.Float c.theta);
                   ("churn_pct", J.Int c.churn_pct);
                   ("ops", J.Int c.ops);
                   ("hits", J.Int c.hits);
                   ("misses", J.Int c.misses);
                   ("stale", J.Int c.stale);
                   ("hit_rate", J.Float c.hit_rate);
                   ("base_msgs", J.Int c.base_msgs);
                   ("cache_msgs", J.Int c.cache_msgs);
                   ("aux_msgs", J.Int c.aux_msgs);
                   ("reduction_pct", J.Float c.reduction_pct);
                   ("wrong_answers", J.Int c.wrong_answers);
                   ("partial", J.Int c.partial);
                 ])
             cells) );
    ]
