(** Message kinds.

    Every protocol hop is accounted under one of these kinds so that
    experiments can separate, e.g., the cost of finding a join point
    (Figure 8(a)) from the cost of updating routing tables afterwards
    (Figure 8(b)). *)

val join_search : string
(** Forwarding a JOIN request (Algorithm 1). *)

val join_update : string
(** Routing-table / link updates after a node is accepted. *)

val leave_search : string
(** FINDREPLACEMENT forwarding (Algorithm 2). *)

val leave_update : string
(** Link and table updates when a node departs or is replaced. *)

val search_exact : string
(** Exact-match query forwarding. *)

val search_range : string
(** Range-query forwarding, including adjacent-link expansion. *)

val insert : string
(** Locating the node for a data insertion. *)

val delete : string
(** Locating the node for a data deletion. *)

val expand : string
(** Range-expansion notifications at the leftmost/rightmost node. *)

val balance : string
(** Load-balancing coordination and data migration. *)

val restructure : string
(** Position shifts and table rebuilds during forced restructuring. *)

val repair : string
(** Failure discovery, reporting and routing-table regeneration. *)

val cache_probe : string
(** A shortcut hop through the adaptive route cache: the query is sent
    straight to the remembered peer, which validates it against its
    current range. Auxiliary traffic — see {!cache_kinds}. *)

val cache_invalid : string
(** A probed peer telling the sender that the shortcut was stale (its
    range moved). Auxiliary traffic — see {!cache_kinds}. *)

val cache_kinds : string list
(** The route-cache message kinds. Registered as auxiliary with
    [Metrics.mark_aux] so cache traffic is counted honestly on the bus
    yet reported apart from the paper's message-total metric. *)

val maint_kinds : string list
(** The tree-maintenance kinds (join/leave traffic, [expand],
    [balance], [restructure], [repair]): delivered messages of these
    kinds are attributed to the handling peer's [maint] heat class.
    Disjoint from {!cache_kinds}; every other kind is client demand. *)

val all : string list

(** {2 Link kinds}

    Labels classifying which overlay link a traced hop travelled —
    attached to [Baton_obs.Trace] hops so critical-path analysis can
    break an operation's cost down by link type. *)

val link_parent : string
val link_child : string

val link_adjacent : string
(** Left/right adjacent link — the in-order neighbour chain a range
    query sweeps along. *)

val link_sideways : string
(** Left/right routing-table jump — the BATON long link. *)

val link_cache : string
(** Adaptive route-cache shortcut. *)

val link_other : string
(** Unclassifiable: the destination is not a current neighbour of the
    sender (e.g. a repair contact found out of band). *)

(** {2 Operation kinds}

    The kind each protocol entry point names its trace episode with
    ([Net.with_op]); one top-level operation is one episode, and nested
    work (a restructure inside a join, a repair inside a search) joins
    its parent's episode. *)

val op_join : string
val op_leave : string
val op_exact : string
val op_range : string
val op_insert : string
val op_delete : string
val op_restructure : string
val op_repair : string

(** {2 Event names}

    Names for {!Baton_sim.Metrics.event} counters — things worth
    observing that are not passing messages, so they never perturb the
    paper's message-count metric. *)

val ev_retry : string
(** A timed-out send was retransmitted (the retransmission itself is a
    counted message; this event records that it happened). *)

val ev_give_up : string
(** A send exhausted its retry budget and surfaced [Timeout]. *)

val ev_notify_dropped : string
(** A one-way notification was lost: destination failed, departed, or
    the fault model dropped it. *)

val ev_notify_stale : string
(** A notification arrived at a peer that changed position since it
    was addressed, and was ignored. *)

val ev_suspect : string
(** A routing peer observed a timeout/unreachable neighbour and filed
    a suspicion against it. *)

val ev_repair_triggered : string
(** Accumulated suspicion crossed the threshold and the observer
    initiated the repair protocol. *)

val ev_cache_hit : string
(** A cached shortcut was probed and validated by the receiver. *)

val ev_cache_miss : string
(** The cache held no entry covering the key; tree routing used. *)

val ev_cache_stale : string
(** A cached shortcut turned out stale or dead; the entry was evicted
    and the search fell back to tree routing. *)

val ev_cache_evict : string
(** A cache entry was displaced by the LRU capacity bound. *)
