(** Route-cache effectiveness under skew and churn.

    Each cell replays one pre-generated operation schedule twice from
    the same seed — cache disabled, then enabled — so the message
    difference is attributable to the cache alone. Answers are checked
    against a flat oracle in both runs: a shortcut may only change the
    cost of an answer, never its content. *)

type cell = {
  theta : float;  (** Zipf skew of the query keys *)
  churn_pct : int;  (** membership events per 100 operations *)
  ops : int;
  hits : int;  (** validated shortcut deliveries *)
  misses : int;  (** consults with no covering entry *)
  stale : int;  (** shortcuts evicted after failed validation *)
  hit_rate : float;  (** hits / (hits + misses + stale) *)
  base_msgs : int;  (** protocol messages, cache disabled *)
  cache_msgs : int;  (** protocol messages, cache enabled *)
  aux_msgs : int;  (** probe/invalidation traffic, cache enabled *)
  reduction_pct : float;
      (** 100 * (base - (cache + aux)) / base — the cache pays for its
          own bookkeeping before claiming any saving *)
  wrong_answers : int;  (** oracle mismatches across both runs *)
  partial : int;  (** range answers flagged [complete = false] *)
}

val default_capacity : int
(** Per-peer cache capacity used by every cell. *)

val thetas : float list
(** Skew sweep, run at zero churn. *)

val churn_rates : int list
(** Churn sweep (percent), run at theta = 0.9. *)

val cells :
  seed:int ->
  n:int ->
  keys_per_node:int ->
  ops:int ->
  range_span:int ->
  unit ->
  cell list
(** The full grid: theta sweep then churn sweep, in declared order.
    @raise Invalid_argument on [n], [keys_per_node] or [ops] below 1, or
    a negative [range_span]. *)

val run : Params.t -> Table.t
(** Render the grid as an experiment table. *)

val bench_json :
  seed:int ->
  n:int ->
  keys_per_node:int ->
  ops:int ->
  range_span:int ->
  cell list ->
  Baton_obs.Json.t
(** The {!Baton_runtime.Report_check.cache_schema} document:
    deterministic field order, byte-identical for the same seed. *)
