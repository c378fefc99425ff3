(* Per-kind statistics: the total for the kind plus a dense per-node
   breakdown, so recording one message touches one hash lookup (by the
   kind string) and two array cells instead of three hashtable probes
   (by_kind, by_node and a boxed (node, kind) tuple key). Peer ids are
   dense small ints (handed out by the network's fresh_id counter), so
   an array indexed by id is both the fastest and the smallest map. *)
type kind_stat = { mutable count : int; mutable per_node : int array }

type t = {
  mutable total : int;
  mutable aux_total : int;
  aux_kinds : (string, unit) Hashtbl.t;
  by_kind : (string, kind_stat) Hashtbl.t;
  mutable by_node : int array;
  by_event : (string, int ref) Hashtbl.t;
}

let create () =
  {
    total = 0;
    aux_total = 0;
    aux_kinds = Hashtbl.create 8;
    by_kind = Hashtbl.create 32;
    by_node = [||];
    by_event = Hashtbl.create 32;
  }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.add tbl key (ref 1)

(* A zero-filled counter array covering index [i], grown by doubling
   from the old one. *)
let grown old i =
  let cap = max 64 (max (i + 1) (2 * Array.length old)) in
  let a = Array.make cap 0 in
  Array.blit old 0 a 0 (Array.length old);
  a

let mark_aux t kind =
  if not (Hashtbl.mem t.aux_kinds kind) then Hashtbl.add t.aux_kinds kind ()

let record t ~dst ~kind =
  if Hashtbl.mem t.aux_kinds kind then t.aux_total <- t.aux_total + 1
  else t.total <- t.total + 1;
  let stat =
    match Hashtbl.find_opt t.by_kind kind with
    | Some s -> s
    | None ->
      let s = { count = 0; per_node = [||] } in
      Hashtbl.add t.by_kind kind s;
      s
  in
  stat.count <- stat.count + 1;
  if dst >= Array.length stat.per_node then
    stat.per_node <- grown stat.per_node dst;
  Array.unsafe_set stat.per_node dst (Array.unsafe_get stat.per_node dst + 1);
  if dst >= Array.length t.by_node then t.by_node <- grown t.by_node dst;
  Array.unsafe_set t.by_node dst (Array.unsafe_get t.by_node dst + 1)

let total t = t.total
let aux_total t = t.aux_total

let event t name = bump t.by_event name

let find tbl key = match Hashtbl.find_opt tbl key with Some r -> !r | None -> 0

let kind_count t kind =
  match Hashtbl.find_opt t.by_kind kind with Some s -> s.count | None -> 0

let node_count t node =
  if node >= 0 && node < Array.length t.by_node then t.by_node.(node) else 0

let node_kind_count t node kind =
  match Hashtbl.find_opt t.by_kind kind with
  | Some s when node >= 0 && node < Array.length s.per_node -> s.per_node.(node)
  | Some _ | None -> 0

let event_count t name = find t.by_event name

let kinds t =
  Hashtbl.fold (fun k (s : kind_stat) acc -> (k, s.count) :: acc) t.by_kind []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let events t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.by_event []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Only touched nodes appear, in id order — the same view the sparse
   hashtable produced. *)
let per_node t =
  let acc = ref [] in
  for n = Array.length t.by_node - 1 downto 0 do
    if t.by_node.(n) > 0 then acc := (n, t.by_node.(n)) :: !acc
  done;
  !acc

let reset t =
  t.total <- 0;
  t.aux_total <- 0;
  Hashtbl.reset t.by_kind;
  t.by_node <- [||];
  Hashtbl.reset t.by_event

type checkpoint = {
  at_total : int;
  at_aux : int;
  kind_snapshot : (string * int) list;
  event_snapshot : (string * int) list;
}

let checkpoint t =
  {
    at_total = t.total;
    at_aux = t.aux_total;
    kind_snapshot = kinds t;
    event_snapshot = events t;
  }

let since t cp = t.total - cp.at_total
let aux_since t cp = t.aux_total - cp.at_aux

let kind_since t cp kind =
  let before =
    match List.assoc_opt kind cp.kind_snapshot with Some n -> n | None -> 0
  in
  kind_count t kind - before

let event_since t cp name =
  let before =
    match List.assoc_opt name cp.event_snapshot with Some n -> n | None -> 0
  in
  event_count t name - before
