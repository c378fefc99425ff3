(** The report contract: what every bench document this code writes
    must satisfy.

    [bench-run], [bench-scale] and [bench-cache] hold their own
    document to it after writing it, and tier-1 holds the committed
    [BENCH_*.json] files to it. It contains only predicates that hold
    for every document the writers can produce, at any size, mix or
    observer setting; expectations that hold only at one configuration
    (a smoke run's throughput is positive, a fault schedule fired) are
    tests at that configuration. *)

val runtime_schema : string
(** ["baton-bench-runtime-v8"], the schema of
    {!Driver.bench_json}. v8 drops the ["health"] section's ["load"]
    array: each health sample's ["skew"] is the one per-peer load
    reading, and every other field keeps its v7 bytes. v7 added the
    optional per-run ["load"] section (present iff the run had heat
    instrumentation on), the ["heat_skew"] time-series field and the
    health samples' ["hot_share"]/["hotspot"] readings. *)

val scale_schema : string
(** ["baton-bench-scale-v1"], the schema of {!Driver.scale_json}. *)

val cache_schema : string
(** ["baton-bench-cache-v1"], the schema of the route-cache sweep
    document ([Exp_cache.bench_json]). *)

val check : Baton_obs.Json.t -> string list
(** The broken predicates of a parsed document, one ["where: rule"]
    line each, in document order; [[]] when the document keeps the
    contract. The contract is chosen by the document's own ["schema"]
    field, and [where] is ["document"] or the run's label: its
    {!Bench_diff.labeled_runs} label (["overlay/mix"] in a runtime
    document, the ["n=<n>"] mix in a scale document), or
    ["theta=T/churn=C%"] for a cache cell.

    Every run of a runtime or scale document carries every v8 field,
    with [completed + failed = ops_issued]; no fault activity without a
    schedule; zero oracle violations, counted consistently; a health
    section iff [monitor_every_ms > 0], with samples, no v7 load array,
    [summary.ticks] at least its sample count and known levels; a time
    series iff [series_every_ms > 0], with samples, [recorded =
    dropped + samples] and [heat_skew] in its samples iff the run has a
    ["load"] section; a well-formed load section; profile rows that
    sum to [wall_ms] within 1%; no cache traffic with the route cache
    off; and ordered latency percentiles. A scale run is also profiled
    and labeled ["n=<n>"] by its own size. Every cache cell gave no
    wrong answer and, at zero churn, met no stale shortcut and gave no
    partial answer. *)
