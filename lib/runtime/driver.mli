(** Workload driver on the concurrent runtime.

    Pre-generates a deterministic operation plan from a seed (mix
    weights, Zipf-skewed exact keys, fixed-span ranges, alternating
    join/leave churn), executes it as interleaved fibers — open- or
    closed-loop — and reports throughput, per-kind latency percentiles
    and queue-depth statistics. Two runs of the same config serialize
    to byte-identical JSON.

    The same plan can instead be executed against any registered
    comparison overlay ({!P2p_overlay.Overlay.S}) by naming it in
    [config ~overlay]. Every overlay runs through the same fiber loop,
    oracle checks, time-series sampler, profiler and report; the
    runtime suspends at the overlay's bus. The comparison overlays run
    exact, range and insert on the shared side of a
    {!Runtime.Lock} and join and leave on its exclusive side, so their
    message counts are the same at any number of clients while their
    latencies are real critical paths. Key load, op plan and message
    accounting are identical across overlays — the basis of the
    per-overlay bench matrix. *)

type arrival =
  | Closed of { think_ms : float }
      (** [clients] fibers, each issuing its next operation as soon as
          the previous completes, plus an optional think time. *)
  | Open of { rate_per_s : float }
      (** Operations arrive on a seeded exponential process at the
          given aggregate rate, regardless of completions. *)

type mix = {
  mix_name : string;
  exact_w : int;  (** weight of exact-match lookups *)
  range_w : int;  (** weight of range queries (parallel fan-out) *)
  insert_w : int;  (** weight of insertions *)
  churn_w : int;  (** weight of membership changes (join/leave alternating) *)
}

val read_heavy : mix
val range_heavy : mix
val churn_heavy : mix

val adversarial : mix
(** Read/range/insert mix for adversarial-scenario runs: the membership
    stress comes from the fault schedule, not from client churn.
    Selectable through {!mix_named} but not part of {!mixes}. *)

val mixes : mix list
(** The three canonical mixes, in report order. *)

val mix_named : string -> mix option

type config = {
  overlay : string;
      (** canonical {!P2p_overlay.Overlay.S} name, ["baton"] by
          default. The features that read BATON's network — [domain],
          [route_cache], [monitor_every_ms], [heat] and
          [fault_schedule] — require ["baton"]. *)
  n : int;
  seed : int;
  keys_per_node : int;
  clients : int;
  ops : int;
  arrival : arrival;
  range_span : int;
  theta : float;  (** Zipf exponent for exact-query key skew *)
  mix : mix;
  domain : Baton.Range.t option;
      (** key space to build over and draw keys from; [None] (the
          default) is the paper's canonical [1, 10^9) domain. Scale
          sweeps widen it with [n] so repeated range splits never
          exhaust an interval's integer width. Baton-only. *)
  timeout_ms : float;
  route_cache : bool;  (** enable the adaptive route cache before the
                           measured phase *)
  monitor_every_ms : float;
      (** health-monitor sampling period in virtual ms; [0.] (the
          default) disables monitoring *)
  series_every_ms : float;
      (** time-series sampling period in virtual ms; [0.] (the default)
          disables sampling. Each tick records deterministic progress
          counters (completed, failed, message deltas, fiber and queue
          gauges, monitor rank) into a bounded {!Baton_obs.Series}
          ring. *)
  profile : bool;
      (** meter the simulator process itself during the measured phase
          ({!Baton_obs.Profile}): self wall-clock of engine dispatch,
          bus delivery, each observer callback and the engine loop —
          rows that add up to the phase's wall — plus GC deltas and raw
          engine-event throughput. Metrics-neutral — the probes observe
          the machine, never the simulated world — but its numbers are
          inherently non-deterministic and appear only inside the
          report's ["profile"] subtree. *)
  heat : bool;
      (** install the demand-heat instrument ({!Baton_obs.Heat}) on the
          network for the measured phase: per-peer load attribution
          (serve/route/maint/aux), a top-k heavy-hitter sketch over
          accessed keys, and a key-space heat histogram, exported as the
          report's ["load"] section. A pure observer — heat on vs. off
          leaves every other report field byte-identical. Baton-only. *)
  fault_schedule : Baton_sim.Partition.schedule;
      (** adversarial scenario injected into the measured phase
          (partitions, subtree crashes, gray peers); [[]] (the default)
          injects nothing. A non-empty schedule also enables
          suspicion-driven repair, serialized with joins/leaves through
          the driver's membership lock. *)
  oracle : bool;
      (** replay every completed operation against the consistency
          oracle ({!Baton_obs.Oracle}), with causal-trace evidence
          attached to each violation *)
}

val config :
  ?overlay:string ->
  ?seed:int ->
  ?keys_per_node:int ->
  ?clients:int ->
  ?ops:int ->
  ?arrival:arrival ->
  ?range_span:int ->
  ?theta:float ->
  ?domain:Baton.Range.t ->
  ?timeout_ms:float ->
  ?route_cache:bool ->
  ?monitor_every_ms:float ->
  ?series_every_ms:float ->
  ?profile:bool ->
  ?heat:bool ->
  ?fault_schedule:Baton_sim.Partition.schedule ->
  ?oracle:bool ->
  n:int ->
  mix:mix ->
  unit ->
  config
(** Defaults: overlay "baton", seed 2005, 5 keys/node, 32 clients,
    2000 ops, closed loop with zero think time, span 2·10⁶, theta 1.0
    (the paper's Zipf parameter), timeout {!Runtime.default_timeout_ms},
    monitoring off, time series off, profiling off, heat off, no fault
    schedule, oracle off. The overlay name is canonicalized (aliases resolve).
    @raise Invalid_argument on non-positive sizes (an empty key set
    included), a negative sampling period, a negative think time, a
    non-positive open-loop rate, or a baton-only feature requested for
    another overlay.
    @raise P2p_overlay.Overlay.Unknown_overlay for an unregistered
    overlay name. *)

val kind_order : string list
(** Operation kinds in report order:
    ["exact"; "range"; "insert"; "join"; "leave"]. *)

type report = {
  cfg : config;
  ops_issued : int;
  completed : int;
  failed : int;
      (** operations that raised (e.g. their origin departed
          mid-flight); part of the seeded schedule, not noise *)
  retries : int;  (** retransmissions during the measured phase *)
  messages : int;  (** protocol messages during the measured phase *)
  cache_messages : int;
      (** auxiliary route-cache messages (probes, invalidations) during
          the measured phase — counted apart from [messages] *)
  cache_hits : int;  (** validated shortcut deliveries *)
  cache_misses : int;  (** cache consulted, no covering entry *)
  cache_stale : int;  (** shortcut evicted after a failed validation *)
  duration_ms : float;
      (** {e simulated} completion instant of the last finished
          operation, in virtual ms — {b not} host wall time (see
          [wall_ms] for that). Trailing non-workload events (a final
          monitor tick, a last think-time sleep) are not work and are
          excluded. *)
  wall_ms : float;
      (** host wall-clock duration of the measured phase; [0.] when
          [cfg.profile] is off. Non-deterministic — serialized only
          inside the ["profile"] subtree, never among seeded fields. *)
  events_per_s : float;
      (** raw engine events dispatched per host wall-clock second; [0.]
          when [cfg.profile] is off. The throughput number the bench
          regression gate compares (within a tolerance). *)
  throughput_ops_s : float;
  latencies : (string * Baton_obs.Timing.t) list;
      (** completed-operation latency digests, in {!kind_order} *)
  depth_max : int;
  depth_mean : float;
  health : Baton_obs.Json.t;
      (** [Baton.Monitor] time series + health events sampled every
          [monitor_every_ms]; [Json.Null] when monitoring is off.
          Sampling is a pure observation: the same seed with monitoring
          on and off counts identical messages and finishes at the same
          virtual instant. *)
  load_json : Baton_obs.Json.t;
      (** {!Baton_obs.Heat.json} demand snapshot taken after the drain
          — per-peer class attribution, heavy hitters, key-space
          heatmap, decayed skew; [Json.Null] when [cfg.heat] is off.
          Deterministic: driven only by the virtual clock and the
          seeded workload. *)
  profile_json : Baton_obs.Json.t;
      (** {!Baton_obs.Profile.json} snapshot taken when the drain
          finished; [Json.Null] when [cfg.profile] is off *)
  series : Baton_obs.Series.t option;
      (** the time-series ring sampled every [series_every_ms]; [None]
          when sampling is off. Deterministic — only virtual-clock
          timestamps and counter values are recorded. *)
  partition_timeouts : int;
      (** messages blocked by an active partition during the measured
          phase ({!Baton_sim.Bus.partition_event}) *)
  gray_drops : int;
      (** messages dropped by a gray endpoint during the measured phase
          ({!Baton_sim.Bus.gray_event}) *)
  scenario : (float * string) list;
      (** fault-scenario lifecycle breadcrumbs [(virtual ms, message)],
          chronological; empty without a fault schedule *)
  oracle : Baton_obs.Oracle.t option;
      (** the consistency oracle after judging every completed
          operation; [None] when [cfg.oracle] is off *)
}

val run : config -> report
(** Build the overlay and bulk-load data synchronously (unmeasured),
    enable the route cache when configured, then execute the plan
    concurrently on the fiber runtime and report. On the comparison
    overlays the fields only BATON produces — retries, cache counts,
    health, load — are zero/[Null]. *)

val scale_config :
  ?seed:int -> ?keys_per_node:int -> ?ops:int -> ?clients:int -> int -> config
(** The canonical configuration for one point of the scale sweep: the
    read-heavy mix renamed to ["n=<n>"], profiling on, and a key
    domain widened with [n] (2²⁶ keys of room per peer, never below
    the canonical 10⁹) so repeated range splits cannot exhaust an
    interval's integer width even at n = 10⁶ — the deepest split chain
    runs about twice the tree height, so the per-peer room must absorb
    that maximum. The range-query span stays at 1/500 of the domain,
    the canonical proportion.
    Defaults: seed 2005, 2 keys/node, 2000 ops, 32 clients. *)

val run_scale :
  ?seed:int ->
  ?keys_per_node:int ->
  ?ops:int ->
  ?clients:int ->
  ?progress:(report -> unit) ->
  int list ->
  report list
(** Run {!scale_config} at each population size, in order, calling
    [progress] after each point (for live per-n reporting). Simulated
    metrics of every point are pure functions of the seed; the profile
    sections carry the per-n events/s the scale gate compares.
    @raise Invalid_argument on an empty list. *)

val scale_schema_version : string
(** Value of the ["schema"] field of {!scale_json}:
    ["baton-bench-scale-v1"]. *)

val scale_json : report list -> Baton_obs.Json.t
(** The BENCH_scale.json document: [{schema; runs: [...]}], one run
    object per swept n, labeled by its ["n=<n>"] mix name. The flat
    top-level ["runs"] list is the v5-era layout {!Bench_diff} already
    labels and gates, so the scale baseline reuses the same diff
    machinery. *)

val report_json : report -> Baton_obs.Json.t
(** Every field except the ["profile"] subtree is a pure function of
    the config — same-seed byte-identical. ["profile"] holds the host's
    wall-clock/GC numbers ([Json.Null] when profiling is off); seeded
    byte-comparisons must either run unprofiled or strip it
    ({!Bench_diff} strips). *)

val schema_version : string
(** Value of the ["schema"] field of {!bench_json}:
    ["baton-bench-runtime-v8"]. v8 drops the ["health"] section's
    ["load"] array: each health sample's ["skew"] is the one per-peer
    load reading, and every other field keeps its v7 bytes. v7 added
    the optional per-run ["load"] section (present iff the run had heat
    instrumentation on), the ["heat_skew"] time-series field and the
    health samples' ["hot_share"]/["hotspot"] readings. *)

val bench_json : (string * report list) list -> Baton_obs.Json.t
(** The BENCH_runtime.json document, one section per overlay:
    [{schema; overlays: [{overlay; runs: [...]}; ...]}]. Run objects
    are unchanged from the v5 schema, so a baton-only document differs
    from its v5 counterpart only by the wrapper. *)

val summary : report -> string
(** One human-readable line per run (wall/event throughput appended
    when profiled). *)

val timeseries_jsonl : (string * report list) list -> string
(** The telemetry artifact: one JSON object per line per retained
    sample, each tagged with its overlay and its run's mix name. Empty
    string when no run sampled a series. Deterministic. *)
