(** Continuous overlay health monitor.

    Periodically samples structural invariants ({!Check}), per-node
    access-load skew and route-cache staleness into a bounded
    time-series ring, emitting threshold-based health events on every
    status transition — so churn experiments show {e when} the overlay
    degraded, not just final totals.

    Status semantics: a failing probe reports [Degraded] first — a tick
    can land mid-membership-operation, when the structure is
    legitimately torn — and escalates to [Violated] only after
    [persist] consecutive failing samples. A healthy probe resets to
    [Ok] immediately.

    Purely an observer: probes read the simulator's god view and the
    metrics counters; no message is sent and no protocol PRNG is
    consulted, so monitoring cannot perturb the paper's message
    metric. *)

type level = Ok | Degraded | Violated

val level_label : level -> string
(** ["ok"] / ["degraded"] / ["violated"]. *)

val level_rank : level -> int
(** [Ok] = 0, [Degraded] = 1, [Violated] = 2. *)

(** {1 Components} *)

val c_balance : string
(** {!Check.balanced} + {!Check.height_bound}. *)

val c_tiling : string
(** {!Check.tree_shape} + {!Check.ranges}. *)

val c_links : string
(** {!Check.links} in non-strict mode (stale cached ranges are normal
    operation; wrong identities are damage). *)

val c_load : string
(** Per-node message-load skew (max/mean) over the registered peers'
    [Metrics.per_node] counts, against [max_skew]. Departed peers keep
    their counts in [Metrics] but are left out. *)

val c_cache : string
(** Route-cache staleness rate over the last interval, against
    [max_stale_rate]. *)

val c_hotspot : string
(** Heavy-hitter demand concentration from the installed
    {!Baton_obs.Heat} instrument: fails when the sketch's top-k share
    exceeds [max_topk_factor] times its uniform-demand baseline (with
    at least [min_hot_accesses] accesses recorded). Always [Ok] when no
    heat instrument is installed. *)

val c_overall : string
(** Worst of all components — the single stream to alert on. *)

val components : string list
(** All component names except {!c_overall}, in sample order. *)

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

val default_thresholds : thresholds
(** [max_skew = 4.0], [max_stale_rate = 0.5], [persist = 3],
    [max_topk_factor = 4.0], [min_hot_accesses = 64]. *)

type event = {
  e_time : float;
  component : string;
  before : level;
  after : level;
  detail : string;  (** failing probe's message, [""] on recovery *)
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

type t

val create : ?capacity:int -> ?thresholds:thresholds -> Net.t -> t
(** Monitor for one network, retaining the last [capacity] (default
    4096) samples. @raise Invalid_argument on a non-positive capacity
    or out-of-range thresholds. *)

val thresholds : t -> thresholds

val tick : t -> time:float -> sample
(** Take one sample at the given (virtual) instant, updating component
    states and appending transition events. *)

val tick_count : t -> int

val samples : t -> sample list
(** Retained samples, oldest first. *)

val latest : t -> sample option
val events : t -> event list

val current : t -> string -> level
(** Current status of a component ({!c_overall} included).
    @raise Invalid_argument for unknown names. *)

val sample_json : sample -> Baton_obs.Json.t
val event_json : event -> Baton_obs.Json.t

val json : t -> Baton_obs.Json.t
(** Full health report: samples, events and a summary (tick/transition
    counts, final overall status). Per-peer load appears once, as each
    sample's [skew]. Deterministic — same-seed runs export
    byte-identical health sections. *)
