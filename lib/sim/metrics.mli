(** Message accounting.

    The paper's sole performance metric is the number of passing
    messages (Section V). Every protocol hop in this reproduction is
    recorded here, tagged with a message kind and the processing node,
    so experiments can report totals, per-kind breakdowns (join search
    vs. routing-table update vs. query ...), and per-node access load
    (Figure 8(f)). *)

type t

val create : unit -> t

val record : t -> dst:int -> kind:string -> unit
(** Count one message of the given kind processed by node [dst]. *)

val total : t -> int
(** All messages recorded so far, excluding kinds marked auxiliary with
    {!mark_aux}. Operation costs are measured as deltas of this
    counter. *)

val mark_aux : t -> string -> unit
(** Declare a message kind auxiliary: messages of that kind still pay
    their way on the bus (per-kind and per-node breakdowns include
    them) but accumulate in {!aux_total} instead of {!total}, so
    overlay extensions such as the route cache never perturb the
    paper's metric. *)

val aux_total : t -> int
(** All auxiliary messages recorded so far. *)

val kind_count : t -> string -> int
(** Messages recorded under a kind (0 if none). *)

val node_count : t -> int -> int
(** Messages processed by a node (0 if none). *)

val node_kind_count : t -> int -> string -> int
(** Messages of one kind processed by one node. *)

val kinds : t -> (string * int) list
(** All (kind, count) pairs, sorted by kind. *)

val per_node : t -> (int * int) list
(** All (node, messages processed) pairs, sorted by node id — the raw
    material for access-load skew analysis (Figure 8(f)). *)

val event : t -> string -> unit
(** Count one named simulator event. Events are everything worth
    observing that is {e not} a passing message — lost or stale
    deliveries, retransmissions, suspicion reports — so they never
    perturb {!total}, the paper's metric. *)

val event_count : t -> string -> int
(** Occurrences of a named event (0 if none). *)

val events : t -> (string * int) list
(** All (event, count) pairs, sorted by name. *)

val reset : t -> unit
(** Zero every counter. *)

type checkpoint

val checkpoint : t -> checkpoint
(** Snapshot of the total counter. *)

val since : t -> checkpoint -> int
(** Messages recorded since the checkpoint. *)

val aux_since : t -> checkpoint -> int
(** Auxiliary messages recorded since the checkpoint. *)

val kind_since : t -> checkpoint -> string -> int
(** Messages of one kind recorded since the checkpoint. *)

val event_since : t -> checkpoint -> string -> int
(** Occurrences of one event recorded since the checkpoint. *)
