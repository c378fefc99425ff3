(** Experiment parameters.

    The paper's full configuration (Section V) sweeps network sizes
    1000..10000, loads 1000 x N values and issues 1000 queries of each
    kind, averaged over 10 event orders. {!full} reproduces that sweep
    (with a proportionally reduced data volume, which leaves per-
    message costs unchanged); {!quick} is a scaled-down configuration
    for tests and the benchmark executable. *)

type t = {
  sizes : int list;  (** network sizes to sweep *)
  repeats : int;  (** independent seeds averaged per point *)
  ops_sample : int;  (** membership / update operations sampled per point *)
  queries : int;  (** queries issued per point *)
  keys_per_node : int;  (** data volume per peer *)
  range_span : int;  (** width of range queries *)
  balance_capacity : int;  (** overload threshold for load balancing *)
  seed : int;
  telemetry : bool;
      (** append BATON p95/p99 hop-count columns, computed from each
          query's result record, to the query tables. Off in every
          preset, so the paper's tables stay byte-identical unless
          explicitly asked for. *)
}

val quick : t
(** Sizes 200..1000, 2 repeats — seconds, not minutes. *)

val full : t
(** The paper's sweep: sizes 1000..10000, 3 repeats. *)

val tiny : t
(** Sizes 50..200 — used by the test suite. *)
