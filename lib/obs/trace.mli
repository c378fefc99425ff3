(** Causal message tracing and critical-path extraction.

    Dapper-style: every message transmitted on behalf of one operation
    carries a {!ctx} naming the operation's *episode* (trace id), the
    message's own span id, and the span of the message that caused it.
    Reconstructing parent links over a finished episode yields the hop
    DAG; its longest chain is the operation's critical path — the
    quantity the concurrent runtime charges as completion time — while
    the total hop count is the paper's messages metric. {!analyze}
    reports both, plus per-link-kind and per-level breakdowns and the
    dominant chains.

    The collector is a pure observer: it allocates ids and appends
    records but never sends a message or draws from a protocol PRNG, so
    traced and untraced same-seed runs count byte-identical
    {!Baton_sim.Metrics}.

    Causality is tracked *ambiently* (open episode + span of the last
    delivered message). Synchronous code just threads it through the
    call tree; a cooperative runtime must snapshot it with {!save} at
    every fiber switch and reinstate it with {!restore}, giving forked
    children the fork point's mark. *)

type ctx = {
  trace : int;  (** trace (operation-episode) id *)
  span : int;  (** this message's own span id *)
  parent : int;  (** span id of the causing message, [-1] at the root *)
  op : string;  (** kind of the operation that originated the episode *)
}
(** Causal context of one transmitted message. Carrying it is free — it
    changes neither accounting nor the fault model, so traced and
    untraced runs of the same seed count identical messages. *)

type outcome = Delivered | Timed_out | Unreachable

val outcome_label : outcome -> string

type hop = {
  ctx : ctx;
  src : int;
  dst : int;
  msg : string;  (** message kind on the bus *)
  link : string;  (** link classification supplied by the sender *)
  dst_level : int;  (** destination's tree level at send time, [-1] unknown *)
  sent : float;  (** virtual send instant (global hop index when unclocked) *)
  done_at : float;
      (** when the sender stopped waiting: delivery instant, or the
          timeout-detection instant for lost messages *)
  outcome : outcome;
}

type episode

type t

val create : ?capacity:int -> unit -> t
(** Collector retaining the last [capacity] (default 256) episodes.
    @raise Invalid_argument if [capacity < 1]. *)

val use_engine : t -> Baton_sim.Engine.t -> unit
(** Stamp send/completion instants with the engine's virtual time.
    Without an engine, the global hop counter doubles as the clock. *)

val time : t -> float
(** The collector's current instant — the clock when one is set,
    otherwise the global hop counter. *)

(** {1 Writer side — driven by [Net] and the runtime} *)

val active : t -> bool
(** Whether an episode is currently open. *)

val with_episode : t -> op:string -> (unit -> 'a) -> 'a
(** Run [f] as one traced episode of kind [op]. Nested calls join the
    episode already open in the ambient state — a repair triggered
    mid-search belongs to the search's causal tree. Exception-safe: the
    episode is finalized (marked failed) even if [f] raises. *)

val next_ctx : t -> ctx option
(** Context for a message about to be transmitted: fresh span under the
    ambient causal parent. [None] outside any episode. *)

val record :
  t ->
  ctx:ctx ->
  src:int ->
  dst:int ->
  msg:string ->
  link:string ->
  dst_level:int ->
  sent:float ->
  outcome:outcome ->
  unit
(** Append the fate of one transmitted message to the open episode
    (no-op outside one). Completion instant is taken from the clock. *)

val advance : t -> ctx -> unit
(** Make [ctx] the ambient causal parent — called after its message is
    delivered, so subsequent sends chain under it. Fire-and-forget
    traffic never advances. *)

(** {1 Fiber-switch support} *)

type mark

val save : t -> mark
val restore : t -> mark -> unit

(** {1 Read side} *)

val episode_count : t -> int
(** Episodes completed since creation (including any evicted). *)

val episodes : t -> episode list
(** Retained completed episodes, oldest first. *)

val latest : t -> episode option

val hops : episode -> hop list
(** Hops in send order. *)

(** {1 Analysis} *)

type chain = { length : int; ms : float; spans : hop list }

type analysis = {
  a_trace : int;
  a_op : string;
  a_origin : int;
  msgs : int;  (** every transmitted message, retries included *)
  delivered : int;
  timeouts : int;  (** timed-out and unreachable attempts *)
  crit_hops : int;  (** hops on the longest causal chain *)
  crit_ms : float;  (** latest completion instant minus episode start *)
  duration_ms : float;  (** episode end minus episode start *)
  by_link : (string * int) list;  (** hops per link kind, sorted *)
  by_level : (int * int) list;  (** hops per destination level, sorted *)
  chains : chain list;  (** dominant root-to-leaf chains, longest first *)
}

val analyze : ?top:int -> episode -> analysis
(** Reconstruct the causal tree and extract the critical path. [top]
    (default 3) bounds [chains]. *)

val hop_json : hop -> Json.t
val analysis_json : analysis -> Json.t

val episode_jsonl : episode -> string
(** One hop per line in send order, closed by one analysis line;
    deterministic, byte-identical across same-seed runs. *)

val render : episode -> string
(** ASCII causal tree: children indent under the hop that caused them,
    annotated with link kind, timing and outcome, followed by the
    per-link and per-level breakdowns. *)
