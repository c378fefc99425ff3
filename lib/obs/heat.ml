(* Demand observability: where load *lands*.

   The dense [Metrics] arrays answer "how many messages did peer p
   handle"; they cannot say *why* — whether p owned the answer, merely
   forwarded it, was doing tree maintenance, or served cache probes —
   nor *which keys* the demand concentrated on, nor how the skew moved
   over time. This module holds the three instruments that answer
   those questions:

   - per-peer attribution counters, one per {!cls} (serve / route /
     maint / aux), fed by [Net.send_raw] and promoted by the protocol
     layer when an operation terminates at a peer;
   - exponentially-decayed per-peer demand counters (a recency-weighted
     "who is hot now", where the dense counters are all-time totals);
   - a space-saving top-k heavy-hitter sketch over accessed keys plus a
     fixed-resolution key-space histogram.

   Like the tracer and profiler, a heat instrument is purely an
   observer: nothing here sends a message, consults a protocol PRNG
   or reads the wall clock — every input is an attribution event the
   protocols were already performing, and every calculation is exact
   integer/float arithmetic on those events. Installing one therefore
   leaves [Metrics.total] and the latency digests byte-identical
   (guard-tested), and same-seed runs export byte-identical heat
   reports. *)

(* --- Exponentially-decayed counters --------------------------------- *)

module Decay = struct
  (* Per-peer counters with lazy exponential decay: a bump adds 1 to a
     value that has been shrinking by half every [half_life] time units
     since it was last touched. Storing (value, stamp) and decaying on
     access keeps the hot path O(1) with no periodic sweep, and the
     arithmetic — one [**], one multiply, one add of IEEE doubles — is
     deterministic across same-seed runs. *)
  type t = {
    half_life : float;
    mutable v : float array;
    mutable at : float array;
  }

  let decayed ~half_life v ~at ~now =
    if v = 0. then 0.
    else if now <= at then v
    else v *. (0.5 ** ((now -. at) /. half_life))

  let create ~half_life =
    if half_life <= 0. then invalid_arg "Heat.Decay.create: half_life <= 0";
    { half_life; v = [||]; at = [||] }

  let grown old n default =
    let cap = max 64 (max (n + 1) (2 * Array.length old)) in
    let a = Array.make cap default in
    Array.blit old 0 a 0 (Array.length old);
    a

  let ensure t peer =
    if peer >= Array.length t.v then begin
      t.v <- grown t.v peer 0.;
      t.at <- grown t.at peer 0.
    end

  let bump t peer ~now =
    if peer < 0 then invalid_arg "Heat.Decay.bump: negative peer";
    ensure t peer;
    t.v.(peer) <-
      decayed ~half_life:t.half_life t.v.(peer) ~at:t.at.(peer) ~now +. 1.;
    t.at.(peer) <- now

  let value t peer ~now =
    if peer < 0 || peer >= Array.length t.v then 0.
    else decayed ~half_life:t.half_life t.v.(peer) ~at:t.at.(peer) ~now

  (* (max, mean, touched) over peers that ever recorded demand. *)
  let stats t ~now =
    let mx = ref 0. and sum = ref 0. and touched = ref 0 in
    for p = 0 to Array.length t.v - 1 do
      if t.v.(p) > 0. then begin
        let v = decayed ~half_life:t.half_life t.v.(p) ~at:t.at.(p) ~now in
        incr touched;
        sum := !sum +. v;
        if v > !mx then mx := v
      end
    done;
    if !touched = 0 then (0., 0., 0)
    else (!mx, !sum /. float_of_int !touched, !touched)
end

(* --- Space-saving heavy-hitter sketch ------------------------------- *)

module Sketch = struct
  (* Metwally et al.'s space-saving algorithm over integer keys: at
     most [k] monitored (key, count, err) entries; a new key evicts the
     current minimum, inheriting its count as both starting point and
     error bound. Invariants (property-tested): the counts sum to the
     number of adds, every estimate overcounts by at most [err], [err]
     is at most [total / k], and any key whose true frequency exceeds
     [total / k] is monitored.

     Determinism is part of the contract: eviction breaks count ties
     toward the *smallest monitored key* and reports are sorted by
     (count desc, key asc), so two same-seed runs — which present the
     identical access sequence — export byte-identical top-k tables.
     No hashing, no randomization. *)
  type entry = { key : int; mutable count : int; mutable err : int }

  type t = {
    k : int;
    index : (int, entry) Hashtbl.t;
    mutable slots : entry array;  (* filled prefix of length [size] *)
    mutable size : int;
    mutable total : int;
  }

  let create k =
    if k < 1 then invalid_arg "Heat.Sketch.create: k < 1";
    { k; index = Hashtbl.create (2 * k); slots = [||]; size = 0; total = 0 }

  let k t = t.k
  let total t = t.total

  let add t key =
    t.total <- t.total + 1;
    match Hashtbl.find_opt t.index key with
    | Some e -> e.count <- e.count + 1
    | None ->
      if t.size < t.k then begin
        let e = { key; count = 1; err = 0 } in
        if t.size >= Array.length t.slots then begin
          let a = Array.make (max 4 t.k) e in
          Array.blit t.slots 0 a 0 t.size;
          t.slots <- a
        end;
        t.slots.(t.size) <- e;
        t.size <- t.size + 1;
        Hashtbl.replace t.index key e
      end
      else begin
        (* Evict the minimum-count entry; ties go to the smallest key
           so the choice never depends on insertion order artifacts. *)
        let victim = ref t.slots.(0) and at = ref 0 in
        for i = 1 to t.size - 1 do
          let e = t.slots.(i) in
          if
            e.count < !victim.count
            || (e.count = !victim.count && e.key < !victim.key)
          then begin
            victim := e;
            at := i
          end
        done;
        Hashtbl.remove t.index !victim.key;
        let e = { key; count = !victim.count + 1; err = !victim.count } in
        t.slots.(!at) <- e;
        Hashtbl.replace t.index key e
      end

  let estimate t key =
    match Hashtbl.find_opt t.index key with
    | Some e -> Some (e.count, e.err)
    | None -> None

  (* (key, count, err), count descending then key ascending. *)
  let entries t =
    Array.sub t.slots 0 t.size
    |> Array.to_list
    |> List.map (fun e -> (e.key, e.count, e.err))
    |> List.sort (fun (k1, c1, _) (k2, c2, _) ->
           if c1 <> c2 then compare c2 c1 else compare k1 k2)

  (* Guaranteed demand share of the monitored keys: [count - err] is a
     lower bound on each key's true frequency, so the sum over slots is
     a lower bound on the k hottest keys' share. The raw counts would
     be useless here — they sum to [total] by construction (each add
     increments exactly one counter by one), making that ratio
     identically 1 once the sketch is full. Under uniform demand every
     slot is churned through eviction and [err ~= count], driving the
     guaranteed share toward 0; real heavy hitters keep small errors
     and push it toward their true share. *)
  let topk_share t =
    if t.total = 0 then 0.
    else begin
      let sum = ref 0 in
      for i = 0 to t.size - 1 do
        let e = t.slots.(i) in
        sum := !sum + (e.count - e.err)
      done;
      float_of_int !sum /. float_of_int t.total
    end
end

(* --- The heat instrument -------------------------------------------- *)

type cls = Serve | Route | Maint | Aux

type t = {
  lo : int;
  hi : int;
  buckets : int;
  bucket_width : int;
  hist : int array;
  sketch : Sketch.t;
  decay : Decay.t;
  mutable serve : int array;
  mutable route : int array;
  mutable maint : int array;
  mutable aux : int array;
  mutable peer_cap : int;  (* current length of the class arrays *)
  mutable accesses : int;
  (* Demand clock for the decayed counters: the driver points it at the
     engine's virtual clock; standalone (synchronous) users fall back
     to an internal event counter — deterministic either way, and never
     the wall clock. *)
  mutable clock : (unit -> float) option;
  mutable ticks : int;
}

let default_k = 16
let default_buckets = 64
let default_half_life = 1000.

let create ?(k = default_k) ?(buckets = default_buckets)
    ?(half_life = default_half_life) ~lo ~hi () =
  if hi <= lo then invalid_arg "Heat.create: hi <= lo";
  if buckets < 1 then invalid_arg "Heat.create: buckets < 1";
  let buckets = min buckets (hi - lo) in
  let bucket_width = (hi - lo + buckets - 1) / buckets in
  {
    lo;
    hi;
    buckets;
    bucket_width;
    hist = Array.make buckets 0;
    sketch = Sketch.create k;
    decay = Decay.create ~half_life;
    serve = [||];
    route = [||];
    maint = [||];
    aux = [||];
    peer_cap = 0;
    accesses = 0;
    clock = None;
    ticks = 0;
  }

let set_clock t c = t.clock <- c

let now t =
  match t.clock with
  | Some f -> f ()
  | None -> float_of_int t.ticks

let ensure_peer t peer =
  if peer >= t.peer_cap then begin
    let cap = max 64 (max (peer + 1) (2 * t.peer_cap)) in
    let grow old =
      let a = Array.make cap 0 in
      Array.blit old 0 a 0 t.peer_cap;
      a
    in
    t.serve <- grow t.serve;
    t.route <- grow t.route;
    t.maint <- grow t.maint;
    t.aux <- grow t.aux;
    t.peer_cap <- cap
  end

let arr t = function
  | Serve -> t.serve
  | Route -> t.route
  | Maint -> t.maint
  | Aux -> t.aux

let hop t ~peer cls =
  if peer < 0 then invalid_arg "Heat.hop: negative peer";
  ensure_peer t peer;
  let a = arr t cls in
  a.(peer) <- a.(peer) + 1

(* Reclassify one already-recorded hop at [peer] as a serve: the
   protocol layer calls this when it learns the delivered message
   terminated the operation there (the transport cannot know that at
   delivery time). Conservative on anomalies — a promotion with no
   matching hop (possible only through caller bugs) adds the serve
   without driving the source class negative. *)
let promote t ~peer ~was =
  if was <> Serve then begin
    ensure_peer t peer;
    let a = arr t was in
    if a.(peer) > 0 then a.(peer) <- a.(peer) - 1;
    t.serve.(peer) <- t.serve.(peer) + 1
  end

let bucket_of t key =
  if key < t.lo then 0
  else if key >= t.hi then t.buckets - 1
  else (key - t.lo) / t.bucket_width

let access t ~peer key =
  t.accesses <- t.accesses + 1;
  t.ticks <- t.ticks + 1;
  Sketch.add t.sketch key;
  t.hist.(bucket_of t key) <- t.hist.(bucket_of t key) + 1;
  if peer >= 0 then Decay.bump t.decay peer ~now:(now t)

(* A range access heats every overlapped bucket but feeds the sketch
   only its low endpoint: heavy-hitter entries stay point keys (what a
   shedding policy can act on), while the histogram shows the span. *)
let access_range t ~peer ~lo ~hi =
  t.accesses <- t.accesses + 1;
  t.ticks <- t.ticks + 1;
  Sketch.add t.sketch lo;
  let b0 = bucket_of t lo and b1 = bucket_of t hi in
  for b = b0 to b1 do
    t.hist.(b) <- t.hist.(b) + 1
  done;
  if peer >= 0 then Decay.bump t.decay peer ~now:(now t)

(* --- Read side ------------------------------------------------------ *)

let accesses t = t.accesses
let sketch t = t.sketch
let topk_share t = Sketch.topk_share t.sketch

let count t cls peer =
  if peer < 0 || peer >= t.peer_cap then 0 else (arr t cls).(peer)

let class_total t cls = Array.fold_left ( + ) 0 (arr t cls)

let skew t =
  let mx, mean, _ = Decay.stats t.decay ~now:(now t) in
  if mean <= 0. then 0. else mx /. mean

(* Uniform-demand baseline for the sketch's guaranteed top-k share:
   what {!topk_share} itself would read if accesses were spread evenly.
   Two floors combine. Over the key span the histogram saw touched, the
   k hottest keys would truly hold ~[k / span] of the demand; but the
   sketch also has a churn floor — under uniform demand every eviction
   still leaves its slot a guaranteed count of one ([count = min + 1],
   [err = min]), so the k slots report ~[k / total] no matter how wide
   the span. The alert baseline is the larger of the two, otherwise a
   huge key domain would make any uniform workload look hot. *)
let uniform_share t =
  let touched = ref 0 in
  Array.iter (fun c -> if c > 0 then incr touched) t.hist;
  let total = Sketch.total t.sketch in
  if !touched = 0 || total = 0 then 0.
  else begin
    let span = !touched * t.bucket_width in
    let k = float_of_int (Sketch.k t.sketch) in
    min 1. (max (k /. float_of_int span) (k /. float_of_int total))
  end

(* --- Export --------------------------------------------------------- *)

(* Per-peer rows are capped (largest total first, then peer id) so a
   10^6-peer report stays bounded; [listed]/[touched] make the cap
   explicit rather than silent. *)
let max_peer_rows = 64

let json t =
  let tnow = now t in
  let rows = ref [] and touched = ref 0 in
  for p = t.peer_cap - 1 downto 0 do
    let total = t.serve.(p) + t.route.(p) + t.maint.(p) + t.aux.(p) in
    if total > 0 then begin
      incr touched;
      rows := (p, total) :: !rows
    end
  done;
  let listed =
    List.stable_sort
      (fun (p1, t1) (p2, t2) ->
        if t1 <> t2 then compare t2 t1 else compare p1 p2)
      !rows
    |> List.filteri (fun i _ -> i < max_peer_rows)
  in
  let peer_row (p, total) =
    Json.Obj
      [
        ("peer", Json.Int p);
        ("serve", Json.Int t.serve.(p));
        ("route", Json.Int t.route.(p));
        ("maint", Json.Int t.maint.(p));
        ("aux", Json.Int t.aux.(p));
        ("total", Json.Int total);
      ]
  in
  let entry_row (key, count, err) =
    Json.Obj
      [
        ("key", Json.Int key); ("count", Json.Int count); ("err", Json.Int err);
      ]
  in
  let hist_max = Array.fold_left max 0 t.hist in
  let mx, mean, peers_touched = Decay.stats t.decay ~now:tnow in
  Json.Obj
    [
      ( "classes",
        Json.Obj
          [
            ("serve", Json.Int (class_total t Serve));
            ("route", Json.Int (class_total t Route));
            ("maint", Json.Int (class_total t Maint));
            ("aux", Json.Int (class_total t Aux));
          ] );
      ( "peers",
        Json.Obj
          [
            ("touched", Json.Int !touched);
            ("listed", Json.Int (List.length listed));
            ("rows", Json.List (List.map peer_row listed));
          ] );
      ( "hot_keys",
        Json.Obj
          [
            ("k", Json.Int (Sketch.k t.sketch));
            ("accesses", Json.Int t.accesses);
            ("topk_share", Json.Float (topk_share t));
            ("uniform_share", Json.Float (uniform_share t));
            ( "entries",
              Json.List (List.map entry_row (Sketch.entries t.sketch)) );
          ] );
      ( "heatmap",
        Json.Obj
          [
            ("lo", Json.Int t.lo);
            ("hi", Json.Int t.hi);
            ("buckets", Json.Int t.buckets);
            ("bucket_width", Json.Int t.bucket_width);
            ("max", Json.Int hist_max);
            ( "counts",
              Json.List
                (Array.to_list (Array.map (fun c -> Json.Int c) t.hist)) );
          ] );
      ( "skew",
        Json.Obj
          [
            ("half_life", Json.Float t.decay.Decay.half_life);
            ("max", Json.Float mx);
            ("mean", Json.Float mean);
            ("ratio", Json.Float (skew t));
            ("touched", Json.Int peers_touched);
          ] );
    ]

(* --- Rendering ------------------------------------------------------ *)

(* ASCII renderers over a *parsed* [load] section, so the CLI's [heat]
   subcommand works from any report file without re-running anything. *)

let shades = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#'; '%'; '@' |]

let get_int name j =
  match Json.member name j with
  | Some (Json.Int i) -> Ok i
  | Some (Json.Float f) -> Ok (int_of_float f)
  | _ -> Error (Printf.sprintf "load section: missing int field %S" name)

let ( let* ) r f = Result.bind r f

let render_heatmap load =
  match Json.member "heatmap" load with
  | None -> Error "load section: missing \"heatmap\""
  | Some hm ->
    let* lo = get_int "lo" hm in
    let* hi = get_int "hi" hm in
    let* hist_max = get_int "max" hm in
    let* counts =
      match Json.member "counts" hm with
      | Some (Json.List l) ->
        Ok
          (List.map
             (function
               | Json.Int i -> i | Json.Float f -> int_of_float f | _ -> 0)
             l)
      | _ -> Error "load section: heatmap.counts is not a list"
    in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf "key space [%d, %d), %d buckets, peak %d accesses\n" lo
         hi (List.length counts) hist_max);
    let shade c =
      if c = 0 then shades.(0)
      else if hist_max <= 0 then shades.(0)
      else
        let i =
          1 + (c * (Array.length shades - 2) / hist_max)
        in
        shades.(min i (Array.length shades - 1))
    in
    Buffer.add_char buf '|';
    List.iter (fun c -> Buffer.add_char buf (shade c)) counts;
    Buffer.add_string buf "|\n";
    (* A second row with raw-decade digits makes the scale readable
       without colour: 0-9 = floor(log-ish decile of the peak). *)
    Buffer.add_char buf '|';
    List.iter
      (fun c ->
        if c = 0 || hist_max = 0 then Buffer.add_char buf ' '
        else Buffer.add_char buf (Char.chr (Char.code '0' + (c * 9 / hist_max))))
      counts;
    Buffer.add_string buf "|\n";
    Ok (Buffer.contents buf)

let render_topk load =
  match Json.member "hot_keys" load with
  | None -> Error "load section: missing \"hot_keys\""
  | Some hk ->
    let* k = get_int "k" hk in
    let* accesses = get_int "accesses" hk in
    let share =
      match Json.member "topk_share" hk with
      | Some (Json.Float f) -> f
      | Some (Json.Int i) -> float_of_int i
      | _ -> 0.
    in
    let* entries =
      match Json.member "entries" hk with
      | Some (Json.List l) -> Ok l
      | _ -> Error "load section: hot_keys.entries is not a list"
    in
    let buf = Buffer.create 256 in
    Buffer.add_string buf
      (Printf.sprintf
         "top-%d heavy hitters over %d accesses (top-k share %.3f)\n" k
         accesses share);
    Buffer.add_string buf
      (Printf.sprintf "%12s %10s %8s\n" "key" "count" "err");
    List.iter
      (fun e ->
        let i name =
          match get_int name e with Ok v -> v | Error _ -> 0
        in
        Buffer.add_string buf
          (Printf.sprintf "%12d %10d %8d\n" (i "key") (i "count") (i "err")))
      entries;
    Ok (Buffer.contents buf)

let render_classes load =
  match Json.member "classes" load with
  | None -> Error "load section: missing \"classes\""
  | Some c ->
    let* serve = get_int "serve" c in
    let* route = get_int "route" c in
    let* maint = get_int "maint" c in
    let* aux = get_int "aux" c in
    let total = serve + route + maint + aux in
    let pct v =
      if total = 0 then 0. else 100. *. float_of_int v /. float_of_int total
    in
    Ok
      (Printf.sprintf
         "attribution: serve %d (%.1f%%)  route %d (%.1f%%)  maint %d \
          (%.1f%%)  aux %d (%.1f%%)\n"
         serve (pct serve) route (pct route) maint (pct maint) aux (pct aux))

let render load =
  let* classes = render_classes load in
  let* heatmap = render_heatmap load in
  let* topk = render_topk load in
  Ok (classes ^ "\n" ^ heatmap ^ "\n" ^ topk)
