(** The BATON network: peers, positions, and message plumbing.

    Holds the peer registry and the position map. The position map is
    the simulator's god view: it is consulted by invariant checks, by
    test oracles and by the repair path (where the paper's prose
    "children of nodes in its routing tables can help locate ..."
    abbreviates a lookup our protocols still pay messages for). Routing
    decisions in the protocols never read it — they use only node-local
    links, which can be stale. *)

type t

val create : ?seed:int -> domain:Range.t -> unit -> t
(** Empty network over the given key domain. *)

val bus : t -> Baton_sim.Bus.t
val metrics : t -> Baton_sim.Metrics.t
val rng : t -> Baton_util.Rng.t
val domain : t -> Range.t

val size : t -> int
(** Number of live (non-failed, registered) peers. *)

val registered : t -> int
(** Number of registered peers, failed ones included: the length of
    {!peers}. *)

val fresh_id : t -> int
(** Allocate a new physical peer id. *)

val bootstrap : t -> Node.t
(** Create and register the first node (the initial root, owning the
    whole domain). @raise Invalid_argument if the network is not
    empty. *)

val register : t -> Node.t -> unit
(** Add a peer at its position.
    @raise Invalid_argument if id or position is taken. *)

val unregister : t -> Node.t -> unit
(** Remove a peer (graceful departure or completed repair). *)

val reposition : t -> Node.t -> Position.t -> unit
(** Move a peer to a new position in the position map and update
    [node.pos]. The caller is responsible for rebuilding links.
    @raise Invalid_argument if another peer occupies the target; the
    peer then stays registered where it was. *)

val peer : t -> int -> Node.t
(** @raise Not_found for unknown ids. Failed peers are still returned
    (their state exists; only the bus refuses messages to them). *)

val peer_opt : t -> int -> Node.t option

val peer_at : t -> Position.t -> Node.t option
(** The peer occupying a position: one int-keyed hash lookup. *)

val root : t -> Node.t option
val peers : t -> Node.t list
(** All registered peers, unspecified order. *)

val live_ids : t -> int array
(** Ids of registered, non-failed peers, in ascending order. Seeded
    callers pick from this array by index ([Rng.pick]), so the order is
    part of the contract: the same membership always yields the same
    array. The array is fresh on every call; mutating it never affects
    the network or a later call. Costs O(largest id - smallest id)
    with no sorting and no per-id hashing while ids are dense (as
    {!fresh_id} allocates them), and skips the failure lookup while no
    peer has failed; ids spread much wider than the peer count fall
    back to an O(n log n) sort with the same result. *)

val random_peer : t -> Node.t
(** Uniformly random live peer — the issuer of a query in experiments.
    @raise Invalid_argument if the network is empty. *)

val send : t -> src:int -> dst:int -> kind:string -> Node.t
(** Account one protocol hop and return the destination's state (the
    simulator's stand-in for the remote peer processing the message).
    Under an installed fault model, a timed-out attempt is
    retransmitted up to {!retry_limit} times; every attempt is a
    counted message.
    @raise Baton_sim.Bus.Unreachable if the destination failed.
    @raise Baton_sim.Bus.Timeout if every attempt timed out. *)

val send_raw : t -> src:int -> dst:int -> kind:string -> unit
(** {!send} without the destination-state lookup — for handover
    messages to peers that are (legitimately) absent from the position
    map mid-protocol.
    @raise Baton_sim.Bus.Unreachable / [Timeout] as {!send}. *)

(** {1 Hooks}

    Observers (tracer, profiler, heat) and runtime seams (hop wait,
    repair serializer) live in one hooks record beside the protocol
    state. Hooks hold closures and are never marshalled: {!save} writes
    the state alone and leaves every hook attached, {!load} returns a
    network with none. Each observer is pure — it sends nothing and
    consults no protocol PRNG — so installing one never changes
    [Metrics.total].

    {2 Causal tracing}

    An optional {!Baton_obs.Trace} collector is the per-operation
    model: it turns every operation run under {!with_op} into one
    episode, a causal tree in which each transmitted message carries a
    {!Baton_sim.Bus.trace_ctx} naming the episode, its own span and the
    span that caused it. Same-seed runs count byte-identical [Metrics]
    with tracing on or off. *)

val with_op : t -> kind:string -> (unit -> 'a) -> 'a
(** Run [f] as one trace episode of kind [kind] ({!Msg.op_exact} …)
    when a tracer is installed; just [f ()] otherwise. Protocol entry
    points (search, join, leave, repair...) wrap themselves with this;
    a nested call joins the episode already open. *)

val set_tracer : t -> Baton_obs.Trace.t option -> unit
val tracer : t -> Baton_obs.Trace.t option

(** {2 Self-profiling}

    An optional {!Baton_obs.Profile} meters the {e simulator process}:
    wall-clock cost of the protocol hot regions and of bus delivery
    (via a {!Baton_sim.Bus.probe} this installs), GC pressure, raw
    event throughput. The mirror image of the tracer — it observes the
    machine, never the simulated world: probes send
    nothing, consult no PRNG and read no virtual clock, so same-seed
    runs count byte-identical [Metrics] and latency digests with
    profiling on or off (guard-tested). Its numbers are inherently
    non-deterministic and must stay out of seeded byte comparisons. *)

val set_profiler : t -> Baton_obs.Profile.t option -> unit
(** Install the profiler (wiring the bus delivery probe) or remove it
    (restoring the probe-free fast path). *)

val profiler : t -> Baton_obs.Profile.t option

(** {2 Demand heat}

    An optional {!Baton_obs.Heat} instrument attributes every
    {e delivered} message to the peer that handled it: cache kinds
    ({!Msg.cache_kinds}) as [Aux], maintenance kinds
    ({!Msg.maint_kinds}) as [Maint], demand kinds (search, insert,
    delete) as [Route] — promoted to [Serve] by the protocol layer at
    the hop where the operation terminates — while accessed keys and
    ranges feed its heavy-hitter sketch and key-space histogram.
    Timed-out and unreachable attempts, and notifications to absent
    peers, are never attributed: nobody handled them. A fourth pure
    observer — it sends nothing and consults no protocol PRNG, so heat
    on vs. off leaves [Metrics.total] and the latency digests
    byte-identical (guard-tested). *)

val set_heat : t -> Baton_obs.Heat.t option -> unit
val heat : t -> Baton_obs.Heat.t option

val heat_class : string -> Baton_obs.Heat.cls
(** Default heat class of a message kind (the class {!send} attributes
    a delivered message of that kind to, before any promotion). *)

val heat_serve : t -> peer:int -> kind:string -> unit
(** Promote one already-attributed hop of [kind]'s default class at
    [peer] to [Serve] — called by {!Search}/{!Update} where "this peer
    owns the answer" becomes known. A no-op without an instrument. *)

val heat_access : t -> peer:int -> int -> unit
(** Record demand for one key served at [peer] on the installed
    instrument (sketch + histogram + decayed counter); a no-op without
    one. *)

val heat_access_range : t -> peer:int -> lo:int -> hi:int -> unit
(** Record one range access (see {!Baton_obs.Heat.access_range}); a
    no-op without an instrument. *)

val profile : t -> string -> (unit -> 'a) -> 'a
(** [profile t name f] times [f] under the installed profiler's [name]
    region — just [f ()] when no profiler is installed. Used by the
    protocol hot paths ({!Search}, {!Restructure}, {!Failure}). *)

type trace_mark
(** Snapshot of the tracer's ambient causal state (open episode +
    current parent span). The concurrent runtime captures one at every
    fiber suspension point and reinstates it at resumption, so
    interleaved operations keep their causal trees separate. Opaque,
    and free when no tracer is installed. *)

val trace_mark : t -> trace_mark
val restore_trace_mark : t -> trace_mark -> unit

val link_kind : t -> src:int -> dst:int -> kind:string -> string
(** Classify which overlay link a hop travels
    ({!Msg.link_parent} … {!Msg.link_other}), from the sender's links
    as they currently stand. Exposed for the CLI's trace renderer. *)

val event : t -> string -> unit
(** Count one named simulator event ({!Msg.ev_retry} …) in {!metrics}. *)

(** {2 Hop suspension}

    The concurrent runtime ({!Baton_runtime}) installs a hook that is
    called after {e every} transmitted protocol message — each delivery
    and each timed-out attempt — so it can suspend the running
    operation until the engine's clock reaches the simulated delivery
    (or timeout-detection) instant. With no hook installed (the
    default, and the state restored by {!load}) operations run to
    completion synchronously, exactly as before the runtime existed.
    The hook observes and delays; it never sends, so installing it
    cannot change [Metrics.total]. *)

type hop_outcome =
  | Delivered  (** the destination received the message *)
  | Timed_out
      (** no answer will come — the message was lost, the destination
          is transiently silent, or it is permanently unreachable; the
          sender only learns this by waiting out its timeout *)

type hop_wait = src:int -> dst:int -> kind:string -> outcome:hop_outcome -> unit

val set_hop_wait : t -> hop_wait option -> unit
(** Install or remove the hop-suspension hook. The hook applies to
    request/response protocol hops ({!send} / {!send_raw});
    fire-and-forget {!notify} messages never block the sender and are
    not suspended on. *)

val hop_wait : t -> hop_wait option

val set_repair_serializer : t -> ((unit -> unit) -> unit) option -> unit
(** Install a critical section for suspicion-triggered repairs. Under
    the concurrent runtime several fibers can observe failures at once
    and each would start a structural repair; a workload harness
    installs its membership lock here so repairs serialize with each
    other and with joins/leaves. [None] (default) runs repairs inline —
    the synchronous behaviour. *)

val serialize_repair : t -> (unit -> unit) -> unit
(** Run a repair inside the installed critical section (inline when
    none is installed). Used by {!Failure}. *)

val set_retry_limit : t -> int -> unit
(** Retransmissions allowed per logical send (default 3). [0] disables
    retries. @raise Invalid_argument on negative values. *)

val retry_limit : t -> int

val suspect : t -> int -> int
(** File one suspicion observation against a peer and return its
    accumulated count. State only — the protocol reacting to the count
    lives in {!Failure}. *)

val clear_suspicion : t -> int -> unit

val set_suspicion_repair : t -> bool -> unit
(** Enable lazy, suspicion-driven repair: routing peers that observe
    enough timeouts (or an unreachable address) initiate the repair
    protocol themselves, with no help from the harness's god view.
    Off by default so quiescent-network experiments stay untouched. *)

val suspicion_repair : t -> bool

(** {1 Adaptive route cache}

    Off by default. When enabled, {!Search.exact} and {!Search.range}
    consult the querying peer's {!Route_cache} before tree routing and
    remember successful multi-hop destinations afterwards. Probe and
    invalidation traffic is counted on the bus under auxiliary kinds
    ({!Msg.cache_kinds}), so [Metrics.total] — the paper's metric — is
    byte-identical whether the cache is disabled or was never built. *)

val enable_route_cache : ?capacity:int -> t -> unit
(** Turn on route caching with the given per-peer LRU capacity
    (default 128). @raise Invalid_argument if [capacity <= 0]. *)

val disable_route_cache : t -> unit
(** Turn off route caching and flush every peer's cache, restoring
    behaviour identical to a network where the cache never existed. *)

val route_cache_enabled : t -> bool
val route_cache_capacity : t -> int option

val notify :
  ?expect_pos:Position.t ->
  t -> src:int -> dst:int -> kind:string -> (Node.t -> unit) -> unit
(** A one-way cache-refresh message: account the hop and apply the
    update at the destination. Under {!set_defer}, the send and the
    update are postponed until {!flush_deferred} — this is the staleness
    window of the network-dynamics experiment. Notifications to peers
    that meanwhile failed or left are dropped silently, as are
    notifications whose target no longer occupies [expect_pos] (its
    role changed, so the update no longer concerns it). *)

val set_defer : t -> bool -> unit
val deferring : t -> bool

val flush_deferred : t -> unit
(** Deliver all postponed notifications, in send order. *)

val record_shift : t -> int -> unit
(** Record the size of a restructuring shift (for Figure 8(h)). *)

exception Incompatible_snapshot of { found : string; expected : string }
(** The file is a BATON snapshot from a different format version —
    structurally unreadable by this build; regenerate it. *)

val save : t -> string -> unit
(** Snapshot the whole network (peers, positions, data, counters, PRNG
    state) to a file, so an expensive build can be reused across runs.
    The network must be quiescent: deferred notifications pending from
    {!set_defer} cannot be serialised. Only protocol state is written:
    hooks and bus subscribers stay attached to [t] whether the save
    succeeds or fails.
    @raise Invalid_argument if deferred notifications are pending. *)

val load : string -> t
(** Restore a network saved by {!save}. The loaded network continues
    deterministically: running the same operations on the original and
    the restored network yields identical results and message counts.
    The restored network has no hooks and no bus subscribers.
    @raise Incompatible_snapshot if the file is a BATON snapshot of a
    different format version.
    @raise Failure if the file is not a BATON snapshot at all. *)

val shift_histogram : t -> Baton_util.Histogram.t
