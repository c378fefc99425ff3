(** Concurrent discrete-event runtime for overlay operations.

    Runs protocol operations — BATON's from [lib/core], or any overlay
    that sends through a {!Baton_sim.Bus} — as interleaved {e fibers}
    on the simulation {!Baton_sim.Engine}, without rewriting them into
    explicit state machines: OCaml effect handlers suspend an operation
    at every transmitted message (via the bus's wait hook,
    {!Baton_sim.Bus.set_wait}) and resume it when the virtual clock
    reaches the delivery instant drawn from the {!Baton_sim.Latency}
    model — or after {!timeout_ms} for messages that will never be
    answered. Consequences:

    - an operation's completion time is its {e critical path} through
      the network, so independent work (the two directional sweeps of a
      range query, concurrent queries from different clients) overlaps
      in time, while the paper's message counts are untouched — the
      same messages are sent, only the clock differs;
    - joins, leaves, failures and queries interleave at message
      granularity, the concurrency regime the paper's theorems assume.

    Determinism: all context switches pass through the engine's event
    queue, ordered by (time, insertion seq); latencies and faults come
    from seeded PRNGs. Same seed, same interleaving, byte-identical
    results. *)

type t

val create : ?timeout_ms:float -> ?latency:Baton_sim.Latency.t -> Baton.Net.t -> t
(** A runtime driving the given BATON network through its bus. Fibers
    also carry the network tracer's causal state across suspensions.
    [timeout_ms] (default 300.) is the retransmission-timer interval a
    sender waits before declaring a message unanswered; [latency]
    defaults to [Latency.create ()] (20 ms base + Exp(60 ms) per
    directed pair).
    @raise Invalid_argument if [timeout_ms <= 0]. *)

val of_bus :
  ?timeout_ms:float -> ?latency:Baton_sim.Latency.t -> Baton_sim.Bus.t -> t
(** A runtime over a bare bus — the comparison overlays' path. Same
    clock and defaults as {!create}; there is no tracer to carry. *)

val default_timeout_ms : float

val engine : t -> Baton_sim.Engine.t

val bus : t -> Baton_sim.Bus.t
(** The bus whose sends the runtime suspends. *)

val latency : t -> Baton_sim.Latency.t
val timeout_ms : t -> float

val now : t -> float
(** Current virtual time in milliseconds. *)

val live_fibers : t -> int
(** Spawned fibers that have not yet completed. *)

val spawn :
  ?at:float -> t -> (unit -> 'a) -> on_done:(('a, exn) result -> unit) -> unit
(** [spawn t f ~on_done] schedules [f] to run as a fiber (at virtual
    time [at], default: now). [on_done] receives the result or the
    exception that escaped [f]. Fibers must be driven by {!run}. *)

val run : t -> unit
(** Install the wait hook on the bus, execute events until every fiber
    has completed, then restore the bus to synchronous operation.
    Operations invoked outside [run] (setup, verification) behave
    exactly as without a runtime. *)

(** {1 Inside a fiber}

    The following may only be called from code running under {!run};
    outside a fiber they raise [Effect.Unhandled]. *)

val sleep : float -> unit
(** Suspend the calling fiber for the given virtual duration (ms).
    @raise Invalid_argument on negative durations. *)

val both : (unit -> 'a) -> (unit -> 'b) -> 'a * 'b
(** Fork-join: run both thunks as child fibers of the caller and
    return both results once both complete. The children interleave
    with each other (and everything else); the left child starts
    first. If either raises, the exception propagates to the caller
    after both have finished. [both] matches {!Baton.Search.par}, so
    [Search.range ~par:(fun l r -> both l r)] fans a range query's two
    sweeps out in parallel. *)

val suspend : ((unit -> unit) -> unit) -> unit
(** [suspend register] parks the calling fiber and hands [register] a
    wake-up callback; calling it schedules the fiber's resumption at
    the then-current virtual time. The primitive under {!Lock}. *)

(** {1 Queue depth}

    A delivered message occupies its destination's queue from
    transmission to delivery; the runtime tracks the high-water mark
    per destination. *)

val queue_depth_max : t -> int
val queue_depth_mean : t -> float
(** Maximum/mean of the per-peer maxima (0 before any traffic). *)

(** Cooperative readers-writer lock for fibers. The workload driver
    runs membership changes (join/leave) on the exclusive side so
    structural mutations serialize. BATON's queries race them freely —
    mirroring the paper's assumption that concurrent joins are
    serialized by the protocol, not the simulator — while the
    comparison overlays run exact, range and insert on the shared side.

    Admission follows arrival order exactly: no arrival overtakes a
    queued waiter, or a handed-off grant that has not resumed yet. A
    release hands the lock to the compatible waiters at the head of the
    queue; a grant, when it resumes, admits the compatible waiters
    queued behind it meanwhile. Exclusive-only use is a FIFO mutex with
    hand-off. *)
module Lock : sig
  type t

  val create : unit -> t

  val held : t -> bool
  (** Held on either side (granted waiters that have not resumed yet
      included). *)

  val acquire : t -> unit
  (** Take the exclusive side, suspending the fiber until available. *)

  val release : t -> unit
  (** Release whichever side the caller holds, handing off to the
      earliest compatible waiters if any.
      @raise Invalid_argument if the lock is not held. *)

  val with_lock : t -> (unit -> 'a) -> 'a
  (** [acquire]; run; [release] (also on exception). *)

  val with_shared : t -> (unit -> 'a) -> 'a
  (** Take the shared side (suspending the fiber until available); run;
      [release] (also on exception). *)
end
