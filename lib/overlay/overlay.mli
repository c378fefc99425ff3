(** A common interface over the registered overlay networks.

    BATON and its comparison systems expose different native APIs;
    this module erases the differences behind one signature so that
    drivers (the CLI's [compare] command, generic tests, ad-hoc
    scripts) can run the same workload against any of them and read the
    same metrics. Capabilities are discovered, not probed: an overlay
    that cannot answer range queries says so via {!S.supports_range},
    and calling {!S.range_query} on it raises {!Unsupported} — the
    impossibility is part of the interface, exactly as it is part of
    the paper's comparison. *)

type stats = {
  total : int;  (** protocol messages — the paper's metric *)
  cache : int;
      (** auxiliary route-cache traffic (probes, invalidations),
          counted apart from [total]; 0 on overlays without a cache *)
  by_kind : (string * int) list;  (** per-kind breakdown, sorted *)
}
(** Message accounting split by category, so cross-overlay comparisons
    can quote the paper-parity total and the cache overhead apart. *)

exception Unsupported of string
(** Raised by an operation the overlay cannot perform; carries the
    overlay name. *)

module type S = sig
  type t

  val name : string

  val create : seed:int -> n:int -> t
  (** Build an [n]-peer network. *)

  val size : t -> int

  val bus : t -> Baton_sim.Bus.t
  (** The bus every message of this overlay travels, so a runtime
      ([Baton_runtime.Runtime.of_bus]) can suspend its operations at
      each hop. *)

  val stats : t -> stats
  (** Full message accounting, split by category; [(stats t).total] is
      the protocol-message count — the paper's metric. *)

  val supports_range : bool
  (** Can this overlay answer range queries at all? *)

  val insert : t -> int -> unit

  val bulk_load : t -> int list -> unit
  (** Place a batch of keys with amortized routing (one locate plus an
      in-order distribution pass where the overlay supports it),
      instead of one full routed insert per key. *)

  val delete : t -> int -> bool
  val lookup : t -> int -> bool

  val range_query : t -> lo:int -> hi:int -> int list
  (** Matching keys, ascending.
      @raise Unsupported when [supports_range] is [false]. *)

  val join : t -> unit

  val leave_random : t -> Baton_util.Rng.t -> unit
  (** Gracefully remove one uniformly chosen peer (no-op on a 1-peer
      network). *)

  val check : t -> unit
  (** Structural invariants; @raise Failure on violation. *)
end

val baton : (module S)
val chord : (module S)
val multiway : (module S)
val skip_graph : (module S)

val all : (module S) list
(** The registered overlays, BATON first. *)

val names : string list
(** Canonical names of {!all}, in the same order. *)

exception Unknown_overlay of { name : string; valid : string list }
(** Raised by {!of_name} for an unregistered name; carries the
    (lowercased) offending name and the list of valid ones, so callers
    can print an actionable message. *)

val of_name : string -> (module S)
(** Case-insensitive; accepts the canonical names plus the aliases
    "mtree" (multiway) and "skip_graph"/"skipgraph" (skip-graph).
    @raise Unknown_overlay for anything else. *)
