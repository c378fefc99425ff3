(** Simulator self-profiling: wall-clock and GC cost of the engine
    itself.

    Everything else in [lib/obs] observes the {e simulated} world —
    virtual clocks, message counts, causal traces. This module observes
    the {e simulator}: how many wall-clock milliseconds the process
    spends in each layer (engine event dispatch, bus delivery, each
    observer callback, the engine loop around them), how many engine
    events it retires per wall second, and how much garbage it
    generates doing so.

    A profiler is strictly one-way: probes read [Unix.gettimeofday] and
    [Gc.quick_stat] and write into private accumulators. No message is
    sent, no protocol PRNG is consulted, no simulated clock is touched —
    so a run with probes installed counts byte-identical simulated
    metrics to the same run without them (guard-tested). The numbers it
    produces are inherently {e non-deterministic} (they measure the host
    machine); exporters must keep them apart from seeded-comparison
    fields, which is why the bench report isolates them in a [profile]
    section excluded from same-seed byte comparisons.

    {b Self time.} Spans nest on one stack. Each row is billed its
    {e self} time: a span's wall time minus the time its child spans
    covered. The {!s_loop} row holds the wall time outside every span,
    so the rows of {!subsystems} add up to {!elapsed_ms}. That holds
    only for spans that never suspend: feed the profiler from the
    engine's dispatch probe, the bus's delivery probe and synchronous
    callbacks — never from an operation that parks its fiber. *)

type t

val create : unit -> t
(** Start profiling now: snapshots the wall clock and [Gc.quick_stat]
    as the zero point. *)

(** {1 Canonical row names} *)

val s_dispatch : string
(** ["engine.dispatch"] — one engine event popped and executed, minus
    the deliveries and observer callbacks inside it. Its call count is
    the engine's event throughput numerator. *)

val s_delivery : string
(** ["bus.delivery"] — one message transiting {!Baton_sim.Bus.post}
    (metrics, fault layers). *)

val s_loop : string
(** ["engine.loop"] — the wall time outside every span: event-queue
    pops, the runtime's scheduling, the probes' own overhead. Computed,
    never entered; {!subsystems} reports it with one call. *)

val s_monitor : string
(** ["monitor.tick"] — one health-monitor sample. *)

val s_series : string
(** ["series.sample"] — one time-series sample. *)

val s_oracle : string
(** ["oracle.check"] — one consistency-oracle verdict on a read. *)

(** {1 Probes} *)

val enter : t -> string -> unit
(** Open a span of the named row, nested in the span open now. *)

val leave : t -> unit
(** Close the most recently opened span and bill its self time.
    @raise Invalid_argument if no span is open. *)

val span : t -> string -> (unit -> 'a) -> 'a
(** [span t name f] = [enter]; [f ()]; [leave] — the span closes even
    when [f] raises. *)

val engine_probe : t -> Baton_sim.Engine.probe
(** A dispatch probe spanning each engine event as {!s_dispatch}. *)

val bus_probe : t -> Baton_sim.Bus.probe
(** A delivery probe timing each send as {!s_delivery}: a leaf, billed
    to the enclosing span without pushing a frame. *)

val stop : t -> unit
(** Freeze {!elapsed_ms}. Further probes still accumulate (harmless);
    idempotent — the first call wins. *)

(** {1 Readouts} *)

val calls : t -> string -> int
(** Closed spans of a row so far (0 if never entered). *)

val self_ms : t -> string -> float
(** Self wall-clock milliseconds of a row. *)

val subsystems : t -> (string * int * float) list
(** All [(name, calls, self_ms)] triples, {!s_loop} included, sorted by
    name. Their self times sum to {!elapsed_ms}. *)

val elapsed_ms : t -> float
(** Wall milliseconds from [create] to [stop] (or to now if still
    running). *)

val events : t -> int
(** Shorthand for [calls t s_dispatch]: engine events retired. *)

val events_per_s : t -> float
(** Raw simulator throughput: {!events} over {!elapsed_ms}. [0.] until
    any time has passed. *)

val now_ms : unit -> float
(** The profiler's wall clock ([Unix.gettimeofday], in ms) — exposed so
    callers measuring adjacent phases agree with the profiler about
    what time it is. *)

val json : t -> Json.t
(** The bench report's [profile] section: total wall ms, events,
    events/s, GC pressure since [create] (minor/major/compaction counts,
    minor/promoted/major word deltas, current top-heap size) and a
    per-row [{calls; self_ms}] map. Every field is wall-clock-derived
    and therefore non-deterministic — never include it in a same-seed
    byte comparison. *)

val table : t -> string
(** Human-readable per-row table (calls, self ms, share of elapsed),
    widest row first. *)
