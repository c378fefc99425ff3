let join_search = "join.search"
let join_update = "join.update"
let leave_search = "leave.search"
let leave_update = "leave.update"
let search_exact = "search.exact"
let search_range = "search.range"
let insert = "insert"
let delete = "delete"
let expand = "expand"
let balance = "balance"
let restructure = "restructure"
let repair = "repair"

(* Route-cache traffic: counted on the bus like any other message, but
   registered as auxiliary with [Metrics.mark_aux] so it accumulates in
   [Metrics.aux_total] and never perturbs the paper's metric. *)
let cache_probe = "cache.probe"
let cache_invalid = "cache.invalid"
let cache_kinds = [ cache_probe; cache_invalid ]

(* Tree-maintenance kinds: messages that keep the overlay's structure
   healthy rather than carry client demand. The heat layer attributes
   a delivered message of one of these kinds to the handling peer's
   [maint] class; cache kinds go to [aux]; everything else (search,
   insert, delete) is demand and defaults to [route] until the
   protocol layer promotes the terminal hop to [serve]. *)
let maint_kinds =
  [
    join_search;
    join_update;
    leave_search;
    leave_update;
    expand;
    balance;
    restructure;
    repair;
  ]

(* Link-kind labels for causal trace hops: which overlay link the
   sender used to pick the destination. [link_sideways] is a
   routing-table (left/right table) jump — the BATON long link;
   [link_cache] a route-cache shortcut; [link_other] anything the
   classifier cannot attribute (e.g. a contact found by global fallback
   during repair). *)
let link_parent = "parent"
let link_child = "child"
let link_adjacent = "adjacent"
let link_sideways = "sideways"
let link_cache = "cache"
let link_other = "other"

(* Operation kinds: the name a protocol entry point gives its trace
   episode ([Net.with_op]). Plain strings, so extensions can add kinds
   without touching this module. *)
let op_join = "join"
let op_leave = "leave"
let op_exact = "exact"
let op_range = "range"
let op_insert = "insert"
let op_delete = "delete"
let op_restructure = "restructure"
let op_repair = "repair"

(* Simulator event names (Metrics.event) — observations that are not
   themselves messages. *)
let ev_retry = "send.retry"
let ev_give_up = "send.give_up"
let ev_notify_dropped = "notify.dropped"
let ev_notify_stale = "notify.stale"
let ev_suspect = "repair.suspect"
let ev_repair_triggered = "repair.triggered"
let ev_cache_hit = "cache.hit"
let ev_cache_miss = "cache.miss"
let ev_cache_stale = "cache.stale"
let ev_cache_evict = "cache.evict"

let all =
  [
    join_search;
    join_update;
    leave_search;
    leave_update;
    search_exact;
    search_range;
    insert;
    delete;
    expand;
    balance;
    restructure;
    repair;
    cache_probe;
    cache_invalid;
  ]
