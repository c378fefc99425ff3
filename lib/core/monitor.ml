(* Continuous overlay health monitor.

   Samples {!Check}-style structural invariants non-destructively on a
   periodic tick (driven by the workload driver), folding each reading
   into a bounded time-series ring plus a stream of threshold-based
   health events. The point is *when*: a churn experiment's final
   totals cannot show that the overlay spent 40% of the run with a
   torn range tiling — the time series can.

   A failed invariant is not an immediate alarm: a tick can land in the
   middle of a membership operation, between two fiber suspension
   points, when the position map is legitimately mid-restructure. A
   first failure therefore reports [Degraded]; only [persist]
   consecutive failing samples escalate to [Violated] — transient
   mid-op dips recover to [Ok] on the next quiet tick, persistent
   damage does not.

   Purely an observer: every probe reads the simulator's god view
   (position map, metrics counters); none sends a message or draws from
   a protocol PRNG, so monitoring on vs. off leaves [Metrics.total]
   byte-identical. *)

module Metrics = Baton_sim.Metrics
module Heat = Baton_obs.Heat
module Json = Baton_obs.Json

type level = Ok | Degraded | Violated

let level_label = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Violated -> "violated"

let level_rank = function Ok -> 0 | Degraded -> 1 | Violated -> 2

(* Component names — stable identifiers in exports and events. *)
let c_balance = "balance"
let c_tiling = "tiling"
let c_links = "links"
let c_load = "load"
let c_cache = "cache"
let c_hotspot = "hotspot"
let c_overall = "overall"
let components = [ c_balance; c_tiling; c_links; c_load; c_cache; c_hotspot ]

type thresholds = {
  max_skew : float;
      (** max/mean per-node message load above which [load] degrades *)
  max_stale_rate : float;
      (** fraction of cache probes per interval allowed to be stale *)
  persist : int;
      (** consecutive failing samples before a component escalates from
          [Degraded] to [Violated] *)
  max_topk_factor : float;
      (** hotspot: multiple of the sketch's uniform-demand baseline the
          top-k share may reach before [hotspot] degrades *)
  min_hot_accesses : int;
      (** hotspot: sketch accesses below which the alert stays quiet
          (too little demand to call anything hot) *)
}

let default_thresholds =
  {
    max_skew = 4.0;
    max_stale_rate = 0.5;
    persist = 3;
    max_topk_factor = 4.0;
    min_hot_accesses = 64;
  }

type event = {
  e_time : float;
  component : string;
  before : level;
  after : level;
  detail : string;
}

type sample = {
  s_time : float;
  nodes : int;
  height : int;
  skew : float;  (** max/mean per-node load, 0 with no load yet *)
  stale_rate : float;  (** stale fraction of this interval's cache probes *)
  hot_share : float;
      (** heavy-hitter top-k demand share from the heat sketch, 0 when
          no heat instrument is installed or nothing was accessed *)
  levels : (string * level) list;  (** per component, in {!components} order *)
  overall : level;
}

type comp_state = { mutable fails : int; mutable current : level }

type t = {
  net : Net.t;
  thresholds : thresholds;
  capacity : int;
  ring : sample option array;
  mutable count : int;
  mutable events_rev : event list;
  states : (string, comp_state) Hashtbl.t;
  (* Interval anchor for per-tick rates (cache staleness). *)
  mutable mark : Metrics.checkpoint;
}

let create ?(capacity = 4096) ?(thresholds = default_thresholds) net =
  if capacity < 1 then invalid_arg "Monitor.create: capacity < 1";
  if thresholds.persist < 1 then invalid_arg "Monitor.create: persist < 1";
  if thresholds.max_skew <= 0. then invalid_arg "Monitor.create: max_skew <= 0";
  if thresholds.max_stale_rate < 0. || thresholds.max_stale_rate > 1. then
    invalid_arg "Monitor.create: max_stale_rate outside [0, 1]";
  if thresholds.max_topk_factor <= 0. then
    invalid_arg "Monitor.create: max_topk_factor <= 0";
  if thresholds.min_hot_accesses < 0 then
    invalid_arg "Monitor.create: min_hot_accesses < 0";
  let states = Hashtbl.create 8 in
  List.iter
    (fun c -> Hashtbl.add states c { fails = 0; current = Ok })
    (c_overall :: components);
  {
    net;
    thresholds;
    capacity;
    ring = Array.make capacity None;
    count = 0;
    events_rev = [];
    states;
    mark = Metrics.checkpoint (Baton_sim.Bus.metrics (Net.bus net));
  }

let thresholds t = t.thresholds

(* One probe: [None] = healthy, [Some detail] = failing right now.
   Catch-all because a tick landing mid-operation can observe state
   torn enough for a check to die on a missing position, not just a
   clean [Failure]. *)
let probe f =
  match f () with
  | () -> None
  | exception Failure m -> Some m
  | exception e -> Some (Printexc.to_string e)

let transition t ~time state ~component ~failing ~detail =
  let before = state.current in
  let after =
    if not failing then begin
      state.fails <- 0;
      Ok
    end
    else begin
      state.fails <- state.fails + 1;
      if state.fails >= t.thresholds.persist then Violated else Degraded
    end
  in
  state.current <- after;
  if after <> before then
    t.events_rev <-
      { e_time = time; component; before; after; detail } :: t.events_rev;
  after

let tick t ~time =
  let metrics = Net.metrics t.net in
  (* Structural probes over the god view. [links] is checked
     non-strictly: cached ranges going stale between refreshes is
     normal operation, only wrong identities/positions are damage. *)
  let structural =
    [
      ( c_balance,
        probe (fun () ->
            Check.balanced t.net;
            Check.height_bound t.net) );
      ( c_tiling,
        probe (fun () ->
            Check.tree_shape t.net;
            Check.ranges t.net) );
      (c_links, probe (fun () -> Check.links ~strict:false t.net));
    ]
  in
  (* Per-node access-load skew (Figure 8(f) as a time series). Only
     currently-registered peers count: load on departed nodes is
     history, not present imbalance. *)
  let nodes, total, peak =
    List.fold_left
      (fun ((nodes, total, peak) as acc) (node, count) ->
        if Option.is_some (Net.peer_opt t.net node) then
          (nodes + 1, total + count, max peak count)
        else acc)
      (0, 0, 0) (Metrics.per_node metrics)
  in
  let skew =
    if total = 0 then 0.
    else float_of_int peak /. (float_of_int total /. float_of_int nodes)
  in
  let load_failing = skew > t.thresholds.max_skew in
  (* Cache staleness over this interval: of the shortcut probes that
     resolved, how many were stale. No probes — healthy. *)
  let hits = Metrics.event_since metrics t.mark Msg.ev_cache_hit in
  let stale = Metrics.event_since metrics t.mark Msg.ev_cache_stale in
  let stale_rate =
    if hits + stale = 0 then 0.
    else float_of_int stale /. float_of_int (hits + stale)
  in
  let cache_failing = stale_rate > t.thresholds.max_stale_rate in
  (* Hotspot: the heat sketch's top-k demand share against a multiple
     of its uniform baseline (what the k hottest keys would hold if
     demand were spread evenly over the touched key span). Quiet with
     no heat instrument, and below [min_hot_accesses] — too little
     demand to call anything hot. *)
  let hot_share, hot_failing, hot_detail =
    match Net.heat t.net with
    | None -> (0., false, "")
    | Some h ->
      let share = Heat.topk_share h in
      let uniform = Heat.uniform_share h in
      let failing =
        Heat.accesses h >= t.thresholds.min_hot_accesses
        && share > t.thresholds.max_topk_factor *. uniform
      in
      ( share,
        failing,
        if failing then
          Printf.sprintf "top-k share %.2f (uniform baseline %.4f)" share
            uniform
        else "" )
  in
  t.mark <- Metrics.checkpoint metrics;
  let level component ~failing ~detail =
    transition t ~time
      (Hashtbl.find t.states component)
      ~component ~failing ~detail
  in
  let levels =
    List.map
      (fun (component, fail) ->
        ( component,
          level component
            ~failing:(Option.is_some fail)
            ~detail:(Option.value ~default:"" fail) ))
      structural
    @ [
        ( c_load,
          level c_load ~failing:load_failing
            ~detail:(if load_failing then Printf.sprintf "skew %.2f" skew else "")
        );
        ( c_cache,
          level c_cache ~failing:cache_failing
            ~detail:
              (if cache_failing then Printf.sprintf "stale rate %.2f" stale_rate
               else "") );
        (c_hotspot, level c_hotspot ~failing:hot_failing ~detail:hot_detail);
      ]
  in
  let worst =
    List.fold_left
      (fun acc (_, l) -> if level_rank l > level_rank acc then l else acc)
      Ok levels
  in
  (* The overall component carries no persistence counter of its own:
     it mirrors the worst member, and its transitions give a single
     stream to alert on. *)
  let overall_state = Hashtbl.find t.states c_overall in
  let before = overall_state.current in
  overall_state.current <- worst;
  if worst <> before then
    t.events_rev <-
      {
        e_time = time;
        component = c_overall;
        before;
        after = worst;
        detail = "";
      }
      :: t.events_rev;
  let sample =
    {
      s_time = time;
      nodes = Net.size t.net;
      height = Check.height t.net;
      skew;
      stale_rate;
      hot_share;
      levels;
      overall = worst;
    }
  in
  t.ring.(t.count mod t.capacity) <- Some sample;
  t.count <- t.count + 1;
  sample

(* --- Read side ------------------------------------------------------ *)

let tick_count t = t.count

let samples t =
  let n = min t.count t.capacity in
  let first = t.count - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some s -> s
      | None -> assert false)

let latest t =
  if t.count = 0 then None else t.ring.((t.count - 1) mod t.capacity)

let events t = List.rev t.events_rev

let current t component =
  match Hashtbl.find_opt t.states component with
  | Some s -> s.current
  | None -> invalid_arg "Monitor.current: unknown component"

(* --- Export --------------------------------------------------------- *)

let sample_json s =
  Json.Obj
    ([
       ("t", Json.Float s.s_time);
       ("nodes", Json.Int s.nodes);
       ("height", Json.Int s.height);
       ("skew", Json.Float s.skew);
       ("stale_rate", Json.Float s.stale_rate);
       ("hot_share", Json.Float s.hot_share);
       ("overall", Json.String (level_label s.overall));
     ]
    @ List.map (fun (c, l) -> (c, Json.String (level_label l))) s.levels)

let event_json e =
  Json.Obj
    [
      ("t", Json.Float e.e_time);
      ("component", Json.String e.component);
      ("from", Json.String (level_label e.before));
      ("to", Json.String (level_label e.after));
      ("detail", Json.String e.detail);
    ]

let json t =
  let evs = events t in
  let degraded, violated =
    List.fold_left
      (fun (d, v) e ->
        match e.after with
        | Degraded -> (d + 1, v)
        | Violated -> (d, v + 1)
        | Ok -> (d, v))
      (0, 0) evs
  in
  Json.Obj
    [
      ("samples", Json.List (List.map sample_json (samples t)));
      ("events", Json.List (List.map event_json evs));
      ( "summary",
        Json.Obj
          [
            ("ticks", Json.Int t.count);
            ("transitions", Json.Int (List.length evs));
            ("to_degraded", Json.Int degraded);
            ("to_violated", Json.Int violated);
            ("final", Json.String (level_label (current t c_overall)));
          ] );
    ]
