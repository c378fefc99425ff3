(* Causal message tracing (Dapper-style).

   One *episode* is the whole causal tree of an operation: every
   message transmitted on its behalf — routing hops, retries, cache
   probes, repair traffic triggered mid-walk — carries a {!ctx} naming
   the episode (trace id), its own span id and the span of the message
   that caused it. Reconstructing the parent links afterwards yields
   the hop DAG, whose longest chain is the operation's critical path —
   the quantity the concurrent runtime charges as completion time —
   while the hop *count* is the paper's metric. Both live in one
   artifact, so "why did this range scan cost what it did" has an
   answer, not just a total.

   Purely an observer: the collector allocates ids and appends records;
   it never sends a message, never draws from a protocol PRNG, and
   never perturbs the fault model — tracing on and tracing off count
   byte-identical [Metrics].

   Causality under concurrency: the collector keeps *ambient* state
   (the open episode and the span of the last delivered message). The
   protocol code between two suspension points runs atomically, so the
   ambient state is correct within a fiber; across fiber switches the
   runtime snapshots it with {!save} and reinstates it with {!restore}
   (forked children each inherit the fork point's mark). Under purely
   synchronous execution there are no switches and the ambient state
   just threads through the call tree. *)

module Engine = Baton_sim.Engine

(* Causal trace context of one message: which trace (operation
   episode) it belongs to, its own span id, the span that caused it and
   the kind of operation that originated the episode. *)
type ctx = { trace : int; span : int; parent : int; op : string }

(* What became of one transmitted message. *)
type outcome = Delivered | Timed_out | Unreachable

let outcome_label = function
  | Delivered -> "ok"
  | Timed_out -> "timeout"
  | Unreachable -> "unreachable"

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

type episode = {
  id : int;  (** trace id *)
  op : string;  (** origin operation kind *)
  mutable origin : int;  (** issuing peer (source of the first hop) *)
  started : float;
  mutable finished : float;
  mutable ok : bool;
  mutable hops_rev : hop list;
  mutable n_hops : int;
}

type mark = { m_episode : episode option; m_parent : int }

type t = {
  capacity : int;
  ring : episode option array;
  mutable count : int;  (** episodes completed *)
  mutable next_trace : int;
  mutable next_span : int;
  mutable seq : int;  (** global hop counter; the clock fallback *)
  mutable clock : (unit -> float) option;
  (* Ambient state — see the header comment. *)
  mutable current : episode option;
  mutable parent : int;
}

let default_capacity = 256

let create ?(capacity = default_capacity) () =
  if capacity < 1 then invalid_arg "Trace.create: capacity < 1";
  {
    capacity;
    ring = Array.make capacity None;
    count = 0;
    next_trace = 0;
    next_span = 0;
    seq = 0;
    clock = None;
    current = None;
    parent = -1;
  }

let use_engine t engine = t.clock <- Some (fun () -> Engine.now engine)

let now t =
  match t.clock with None -> float_of_int t.seq | Some now -> now ()

let time = now

(* --- Ambient state across fiber switches --------------------------- *)

let save t = { m_episode = t.current; m_parent = t.parent }

let restore t m =
  t.current <- m.m_episode;
  t.parent <- m.m_parent

(* --- Writer side ---------------------------------------------------- *)

let active t = Option.is_some t.current

let finalize t ep ~ok =
  ep.finished <- now t;
  ep.ok <- ok;
  t.ring.(t.count mod t.capacity) <- Some ep;
  t.count <- t.count + 1

(* Run [f] as one traced episode. A nested call (a repair triggered
   mid-search, a locate walk inside a range query) joins the episode
   already open in the ambient state instead of opening its own: the
   whole operation is one causal tree. *)
let with_episode t ~op f =
  match t.current with
  | Some _ -> f ()
  | None ->
    let ep =
      {
        id = t.next_trace;
        op;
        origin = -1;
        started = now t;
        finished = now t;
        ok = true;
        hops_rev = [];
        n_hops = 0;
      }
    in
    t.next_trace <- ep.id + 1;
    t.current <- Some ep;
    t.parent <- -1;
    let close ~ok =
      finalize t ep ~ok;
      t.current <- None;
      t.parent <- -1
    in
    (match f () with
    | v ->
      close ~ok:true;
      v
    | exception e ->
      close ~ok:false;
      raise e)

(* Allocate the context a message about to be transmitted will carry:
   a fresh span under the ambient causal parent. [None] outside any
   episode — untraced traffic (e.g. network construction) carries no
   context. *)
let next_ctx t =
  match t.current with
  | None -> None
  | Some ep ->
    let span = t.next_span in
    t.next_span <- span + 1;
    Some { trace = ep.id; span; parent = t.parent; op = ep.op }

let record t ~ctx ~src ~dst ~msg ~link ~dst_level ~sent ~outcome =
  match t.current with
  | None -> ()
  | Some ep ->
    if ep.origin < 0 then ep.origin <- src;
    let hop =
      { ctx; src; dst; msg; link; dst_level; sent; done_at = now t; outcome }
    in
    ep.hops_rev <- hop :: ep.hops_rev;
    ep.n_hops <- ep.n_hops + 1;
    t.seq <- t.seq + 1

(* After a delivered message, what the receiver does next is caused by
   it: advance the ambient parent. Fire-and-forget traffic (notify)
   never advances — nothing awaits it. *)
let advance t (ctx : ctx) = t.parent <- ctx.span

(* --- Read side ------------------------------------------------------ *)

let episode_count t = t.count

let episodes t =
  let n = min t.count t.capacity in
  let first = t.count - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some e -> e
      | None -> assert false)

let latest t =
  if t.count = 0 then None else t.ring.((t.count - 1) mod t.capacity)

let hops (ep : episode) = List.rev ep.hops_rev

(* --- Critical-path analysis ----------------------------------------- *)

type chain = { length : int; ms : float; spans : hop list }

type analysis = {
  a_trace : int;
  a_op : string;
  a_origin : int;
  msgs : int;  (** every transmitted message, retries included *)
  delivered : int;
  timeouts : int;  (** timed-out and unreachable attempts *)
  crit_hops : int;  (** hops on the longest causal chain *)
  crit_ms : float;  (** latest [done_at] minus episode start *)
  duration_ms : float;  (** episode end minus episode start *)
  by_link : (string * int) list;  (** sorted by link kind *)
  by_level : (int * int) list;  (** destination level -> hops, sorted *)
  chains : chain list;  (** dominant root-to-leaf chains, longest first *)
}

let analyze ?(top = 3) (ep : episode) =
  let hops = hops ep in
  let tally assoc key =
    match List.assoc_opt key !assoc with
    | Some n -> assoc := (key, n + 1) :: List.remove_assoc key !assoc
    | None -> assoc := (key, 1) :: !assoc
  in
  let by_link = ref [] and by_level = ref [] in
  let delivered = ref 0 and timeouts = ref 0 in
  (* Children of each span, in send order. *)
  let children = Hashtbl.create 64 in
  List.iter
    (fun h ->
      tally by_link h.link;
      tally by_level h.dst_level;
      (match h.outcome with
      | Delivered -> incr delivered
      | Timed_out | Unreachable -> incr timeouts);
      let siblings =
        Option.value ~default:[] (Hashtbl.find_opt children h.ctx.parent)
      in
      Hashtbl.replace children h.ctx.parent (siblings @ [ h ]))
    hops;
  (* Depth-first over the causal tree, tracking the best chain by hop
     count (ties broken by accumulated time, then deterministic span
     order). *)
  let chains = ref [] in
  let rec descend h depth path ms =
    let ms = Float.max ms (h.done_at -. ep.started) in
    match Hashtbl.find_opt children h.ctx.span with
    | None | Some [] ->
      chains := { length = depth; ms; spans = List.rev (h :: path) } :: !chains
    | Some kids -> List.iter (fun k -> descend k (depth + 1) (h :: path) ms) kids
  in
  List.iter
    (fun root -> descend root 1 [] 0.)
    (Option.value ~default:[] (Hashtbl.find_opt children (-1)));
  let ranked =
    List.stable_sort
      (fun a b ->
        match compare b.length a.length with
        | 0 -> compare b.ms a.ms
        | c -> c)
      (List.rev !chains)
  in
  let crit_hops = match ranked with [] -> 0 | c :: _ -> c.length in
  let crit_ms =
    List.fold_left (fun acc h -> Float.max acc (h.done_at -. ep.started)) 0. hops
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  {
    a_trace = ep.id;
    a_op = ep.op;
    a_origin = ep.origin;
    msgs = ep.n_hops;
    delivered = !delivered;
    timeouts = !timeouts;
    crit_hops;
    crit_ms;
    duration_ms = ep.finished -. ep.started;
    by_link = List.sort compare !by_link;
    by_level = List.sort compare !by_level;
    chains = take top ranked;
  }

(* --- Export --------------------------------------------------------- *)

let hop_json (h : hop) =
  Json.Obj
    [
      ("trace", Json.Int h.ctx.trace);
      ("span", Json.Int h.ctx.span);
      ("parent", if h.ctx.parent < 0 then Json.Null else Json.Int h.ctx.parent);
      ("op", Json.String h.ctx.op);
      ("src", Json.Int h.src);
      ("dst", Json.Int h.dst);
      ("msg", Json.String h.msg);
      ("link", Json.String h.link);
      ("level", Json.Int h.dst_level);
      ("sent", Json.Float h.sent);
      ("done", Json.Float h.done_at);
      ("outcome", Json.String (outcome_label h.outcome));
    ]

let analysis_json a =
  Json.Obj
    [
      ("trace", Json.Int a.a_trace);
      ("op", Json.String a.a_op);
      ("origin", Json.Int a.a_origin);
      ("msgs", Json.Int a.msgs);
      ("delivered", Json.Int a.delivered);
      ("timeouts", Json.Int a.timeouts);
      ("crit_hops", Json.Int a.crit_hops);
      ("crit_ms", Json.Float a.crit_ms);
      ("duration_ms", Json.Float a.duration_ms);
      ( "by_link",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) a.by_link) );
      ( "by_level",
        Json.List
          (List.map
             (fun (l, n) ->
               Json.Obj [ ("level", Json.Int l); ("hops", Json.Int n) ])
             a.by_level) );
      ( "chains",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("hops", Json.Int c.length);
                   ("ms", Json.Float c.ms);
                   ( "spans",
                     Json.List (List.map (fun h -> Json.Int h.ctx.span) c.spans)
                   );
                 ])
             a.chains) );
    ]

(* One hop per line, in send order, closed by one analysis line —
   deterministic, so same-seed runs emit byte-identical files. *)
let episode_jsonl ep =
  let buf = Buffer.create 4096 in
  List.iter
    (fun h ->
      Buffer.add_string buf (Json.to_string (hop_json h));
      Buffer.add_char buf '\n')
    (hops ep);
  Buffer.add_string buf (Json.to_string (analysis_json (analyze ep)));
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* Causal tree, rendered: children indent under the hop that caused
   them, annotated with link kind and timing. *)
let render ep =
  let a = analyze ep in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "trace #%d %s origin=%d: %d msgs (%d delivered, %d lost), critical \
        path %d hops, %.1f ms (completed %.1f ms)\n"
       a.a_trace a.a_op a.a_origin a.msgs a.delivered a.timeouts a.crit_hops
       a.crit_ms a.duration_ms);
  let children = Hashtbl.create 64 in
  List.iter
    (fun h ->
      let siblings =
        Option.value ~default:[] (Hashtbl.find_opt children h.ctx.parent)
      in
      Hashtbl.replace children h.ctx.parent (siblings @ [ h ]))
    (hops ep);
  let rec emit depth h =
    Buffer.add_string buf
      (Printf.sprintf "%s#%-3d %d -> %d  %s [%s]  t=%.1f+%.1f%s\n"
         (String.make (2 * depth) ' ')
         h.ctx.span h.src h.dst h.msg h.link
         (h.sent -. ep.started)
         (h.done_at -. h.sent)
         (match h.outcome with
         | Delivered -> ""
         | Timed_out -> "  TIMEOUT"
         | Unreachable -> "  UNREACHABLE"));
    List.iter
      (emit (depth + 1))
      (Option.value ~default:[] (Hashtbl.find_opt children h.ctx.span))
  in
  List.iter (emit 1) (Option.value ~default:[] (Hashtbl.find_opt children (-1)));
  Buffer.add_string buf
    (Printf.sprintf "per-link: %s\n"
       (String.concat ", "
          (List.map (fun (k, n) -> Printf.sprintf "%s=%d" k n) a.by_link)));
  Buffer.add_string buf
    (Printf.sprintf "per-level: %s\n"
       (String.concat ", "
          (List.map (fun (l, n) -> Printf.sprintf "L%d=%d" l n) a.by_level)));
  Buffer.contents buf
