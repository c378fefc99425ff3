type stats = {
  total : int;
  cache : int;
  by_kind : (string * int) list;
}

exception Unsupported of string

let stats_of_metrics m =
  {
    total = Baton_sim.Metrics.total m;
    cache = Baton_sim.Metrics.aux_total m;
    by_kind = Baton_sim.Metrics.kinds m;
  }

module type S = sig
  type t

  val name : string
  val create : seed:int -> n:int -> t
  val size : t -> int
  val bus : t -> Baton_sim.Bus.t
  val stats : t -> stats
  val supports_range : bool
  val insert : t -> int -> unit
  val bulk_load : t -> int list -> unit
  val delete : t -> int -> bool
  val lookup : t -> int -> bool
  val range_query : t -> lo:int -> hi:int -> int list
  val join : t -> unit
  val leave_random : t -> Baton_util.Rng.t -> unit
  val check : t -> unit
end

module Baton_overlay : S = struct
  type t = Baton.Net.t

  let name = "baton"
  let create ~seed ~n = Baton.Network.build ~seed n
  let size = Baton.Network.size
  let bus = Baton.Net.bus
  let stats t = stats_of_metrics (Baton.Net.metrics t)
  let supports_range = true
  let insert = Baton.Network.insert
  let bulk_load = Baton.Network.bulk_insert
  let delete = Baton.Network.delete
  let lookup = Baton.Network.lookup
  let range_query t ~lo ~hi = Baton.Network.range_query t ~lo ~hi
  let join t = ignore (Baton.Network.join t)

  let leave_random t rng =
    if Baton.Net.size t > 1 then
      Baton.Network.leave t (Baton_util.Rng.pick rng (Baton.Net.live_ids t))

  let check = Baton.Check.all
end

module Chord_overlay : S = struct
  type t = Chord.t

  let name = "chord"

  let create ~seed ~n =
    let t = Chord.create ~seed () in
    for _ = 1 to n do
      ignore (Chord.join t)
    done;
    t

  let size = Chord.size
  let bus = Chord.bus
  let stats t = stats_of_metrics (Chord.metrics t)
  let supports_range = false
  let insert t k = ignore (Chord.insert t k)

  (* Chord hashes keys to peers: there is no in-order chain to
     distribute a sorted batch along, so a bulk load degenerates to
     per-key routed inserts. *)
  let bulk_load t keys = List.iter (insert t) keys

  let delete t k =
    let found = fst (Chord.lookup t k) in
    ignore (Chord.delete t k);
    found

  let lookup t k = fst (Chord.lookup t k)
  let range_query _ ~lo:_ ~hi:_ = raise (Unsupported name)
  let join t = ignore (Chord.join t)

  let leave_random t rng =
    if Chord.size t > 1 then
      ignore (Chord.leave t (Baton_util.Rng.pick rng (Chord.peer_ids t)))

  let check = Chord.check
end

module Multiway_overlay : S = struct
  type t = Multiway.t

  let name = "multiway"

  let create ~seed ~n =
    let t =
      Multiway.create ~seed ~domain_lo:Baton.Network.default_domain.Baton.Range.lo
        ~domain_hi:Baton.Network.default_domain.Baton.Range.hi ()
    in
    for _ = 1 to n do
      ignore (Multiway.join t)
    done;
    t

  let size = Multiway.size
  let bus = Multiway.bus
  let stats t = stats_of_metrics (Multiway.metrics t)
  let supports_range = true
  let insert t k = ignore (Multiway.insert t k)
  let bulk_load t keys = List.iter (insert t) keys
  let delete t k = fst (Multiway.delete t k)
  let lookup t k = fst (Multiway.lookup t k)
  let range_query t ~lo ~hi = fst (Multiway.range_query t ~lo ~hi)
  let join t = ignore (Multiway.join t)

  let leave_random t rng =
    if Multiway.size t > 1 then
      ignore (Multiway.leave t (Baton_util.Rng.pick rng (Multiway.peer_ids t)))

  let check = Multiway.check
end

module Skip_graph_overlay : S = struct
  type t = Skip_graph.t

  let name = "skip-graph"

  let create ~seed ~n =
    let t =
      Skip_graph.create ~seed
        ~domain_lo:Baton.Network.default_domain.Baton.Range.lo
        ~domain_hi:Baton.Network.default_domain.Baton.Range.hi ()
    in
    for _ = 1 to n do
      ignore (Skip_graph.join t)
    done;
    t

  let size = Skip_graph.size
  let bus = Skip_graph.bus
  let stats t = stats_of_metrics (Skip_graph.metrics t)
  let supports_range = true
  let insert t k = ignore (Skip_graph.insert t k)
  let bulk_load t keys = ignore (Skip_graph.bulk_insert t keys)
  let delete t k = fst (Skip_graph.delete t k)
  let lookup t k = fst (Skip_graph.lookup t k)
  let range_query t ~lo ~hi = fst (Skip_graph.range_query t ~lo ~hi)
  let join t = ignore (Skip_graph.join t)

  let leave_random t rng =
    if Skip_graph.size t > 1 then
      ignore
        (Skip_graph.leave t (Baton_util.Rng.pick rng (Skip_graph.peer_ids t)))

  let check = Skip_graph.check
end

let baton : (module S) = (module Baton_overlay)
let chord : (module S) = (module Chord_overlay)
let multiway : (module S) = (module Multiway_overlay)
let skip_graph : (module S) = (module Skip_graph_overlay)
let all = [ baton; chord; multiway; skip_graph ]

let names =
  List.map
    (fun o ->
      let module O = (val o : S) in
      O.name)
    all

exception Unknown_overlay of { name : string; valid : string list }

let of_name name =
  match String.lowercase_ascii name with
  | "baton" -> baton
  | "chord" -> chord
  | "multiway" | "mtree" -> multiway
  | "skip-graph" | "skip_graph" | "skipgraph" -> skip_graph
  | other -> raise (Unknown_overlay { name = other; valid = names })
