(* Trace-replay consistency oracle.

   Maintains a sequential model of the key space from the applied
   mutation sequence (bulk load, inserts, deletes, crash-induced key
   loss) and replays every completed operation's answer — together
   with its causal-trace evidence — against that model. Concurrency
   makes the model interval-valued rather than point-valued: an
   operation that overlapped a mutation to key [k] may legitimately
   see either state, so each mutation is an *uncertainty window*
   [(t_lo, t_hi)] (issue to completion) and a key's state is only
   *definite* for a reader when its last transition settled before the
   reader's window opened and nothing else was in flight.

   Verdicts:
   - [Pass]       — the answer matches the definite model state;
   - [Tolerated]  — the answer disagrees (or omits keys) but the
                    system *said so*: the result was flagged
                    incomplete, the missing keys fall inside a
                    reported hole, or the key's state was genuinely
                    uncertain under concurrency;
   - [Violation]  — the answer is wrong and was presented as right:
                    a stale read, a phantom key, a false-complete
                    range answer, or a range whose tiling silently
                    skipped definitely-present keys.

   The oracle is a pure observer: it never sends a message and never
   draws from a protocol PRNG, so checked and unchecked same-seed runs
   count byte-identical metrics. *)

type verdict = Pass | Tolerated of string | Violation of string

(* One settled mutation of one key: issued at [e_lo], completed (and
   therefore definitely applied) at [e_hi]. *)
type event_ = { e_lo : float; e_hi : float; present : bool }

type kind_counts = {
  mutable k_checked : int;
  mutable k_tolerated : int;
  mutable k_violations : int;
}

module Key_set = Set.Make (Int)

type t = {
  (* key -> settled transitions, newest first (completion order). *)
  hist : (int, event_ list) Hashtbl.t;
  (* [hist]'s keys in order, so a range check visits only the keys
     inside its interval. Built at the first range check and kept
     current by [add_event] from then on, so seeding stays plain
     hashing. *)
  mutable keys : Key_set.t option;
  (* key -> number of in-flight mutations. *)
  pending : (int, int) Hashtbl.t;
  by_kind : (string, kind_counts) Hashtbl.t;
  mutable checked : int;
  mutable passed : int;
  mutable tolerated : int;
  mutable violations : int;
  mutable incomplete : int; (* answers explicitly flagged incomplete *)
  mutable lost_keys : int; (* keys destroyed by crashes *)
  (* Newest-first capped detail list for the report. *)
  mutable details : Json.t list;
  mutable details_dropped : int;
}

let max_details = 16

let create () =
  {
    hist = Hashtbl.create 4096;
    keys = None;
    pending = Hashtbl.create 64;
    by_kind = Hashtbl.create 4;
    checked = 0;
    passed = 0;
    tolerated = 0;
    violations = 0;
    incomplete = 0;
    lost_keys = 0;
    details = [];
    details_dropped = 0;
  }

(* --- Model maintenance --------------------------------------------- *)

let add_event t key ev =
  match Hashtbl.find_opt t.hist key with
  | Some evs -> Hashtbl.replace t.hist key (ev :: evs)
  | None -> (
    Hashtbl.replace t.hist key [ ev ];
    match t.keys with
    | Some keys -> t.keys <- Some (Key_set.add key keys)
    | None -> ())

let key_index t =
  match t.keys with
  | Some keys -> keys
  | None ->
    let keys = Hashtbl.fold (fun k _ acc -> Key_set.add k acc) t.hist Key_set.empty in
    t.keys <- Some keys;
    keys

let seed_keys t keys =
  (* The initial bulk load: settled before the measured phase opens. *)
  List.iter (fun k -> add_event t k { e_lo = 0.; e_hi = 0.; present = true }) keys

let begin_mutation t key =
  let n = match Hashtbl.find_opt t.pending key with Some n -> n | None -> 0 in
  Hashtbl.replace t.pending key (n + 1)

let settle_pending t key =
  match Hashtbl.find_opt t.pending key with
  | Some n when n > 1 -> Hashtbl.replace t.pending key (n - 1)
  | Some _ -> Hashtbl.remove t.pending key
  | None -> ()

let abort_mutation t key = settle_pending t key

let commit_insert t key ~started ~finished =
  settle_pending t key;
  add_event t key { e_lo = started; e_hi = finished; present = true }

let commit_delete t key ~started ~finished =
  settle_pending t key;
  add_event t key { e_lo = started; e_hi = finished; present = false }

let note_lost t ~time keys =
  (* A crash destroys its keys at one instant: the transition has no
     uncertainty window. *)
  List.iter
    (fun k ->
      t.lost_keys <- t.lost_keys + 1;
      add_event t k { e_lo = time; e_hi = time; present = false })
    keys

let lost_keys t = t.lost_keys

(* A key's state as seen by a reader whose window opened at [w0]:
   definite only when nothing about the key was in flight and its
   newest transition settled before the reader started looking. *)
type state = Definitely of bool | Uncertain

let state_at t key ~w0 =
  if Hashtbl.mem t.pending key then Uncertain
  else
    match Hashtbl.find_opt t.hist key with
    | None | Some [] -> Definitely false
    | Some (newest :: _) ->
      if newest.e_hi <= w0 then Definitely newest.present else Uncertain

(* --- Verdict bookkeeping ------------------------------------------- *)

let kind_counts t kind =
  match Hashtbl.find_opt t.by_kind kind with
  | Some c -> c
  | None ->
    let c = { k_checked = 0; k_tolerated = 0; k_violations = 0 } in
    Hashtbl.add t.by_kind kind c;
    c

let trace_evidence = function
  | None -> []
  | Some (a : Trace.analysis) ->
    [
      ( "trace",
        Json.Obj
          [
            ("id", Json.Int a.Trace.a_trace);
            ("msgs", Json.Int a.Trace.msgs);
            ("crit_hops", Json.Int a.Trace.crit_hops);
            ("timeouts", Json.Int a.Trace.timeouts);
          ] );
    ]

let record t ~kind ~trace ~fields verdict =
  t.checked <- t.checked + 1;
  let c = kind_counts t kind in
  c.k_checked <- c.k_checked + 1;
  (match verdict with
  | Pass -> t.passed <- t.passed + 1
  | Tolerated _ ->
    t.tolerated <- t.tolerated + 1;
    c.k_tolerated <- c.k_tolerated + 1
  | Violation reason ->
    t.violations <- t.violations + 1;
    c.k_violations <- c.k_violations + 1;
    if List.length t.details >= max_details then
      t.details_dropped <- t.details_dropped + 1
    else
      t.details <-
        Json.Obj
          (("op", Json.String kind)
          :: ("reason", Json.String reason)
          :: (fields @ trace_evidence trace))
        :: t.details);
  verdict

(* --- Checks --------------------------------------------------------- *)

let check_exact t ?trace ~started ~finished:_ ~key ~found ~complete () =
  if not complete then t.incomplete <- t.incomplete + 1;
  let fields = [ ("key", Json.Int key) ] in
  let verdict =
    match (state_at t key ~w0:started, found) with
    | Uncertain, _ -> Tolerated "concurrent mutation"
    | Definitely true, true | Definitely false, false -> Pass
    | Definitely true, false ->
      if complete then Violation "stale read: present key reported absent"
      else Tolerated "incomplete lookup missed present key"
    | Definitely false, true -> Violation "phantom: absent key reported present"
  in
  record t ~kind:"exact" ~trace ~fields verdict

(* Is [k] inside one of the reported half-open holes? *)
let in_hole holes k = List.exists (fun (a, b) -> a <= k && k < b) holes

let check_range t ?trace ~started ~finished:_ ~lo ~hi ~keys ~complete ~holes ()
    =
  if not complete then t.incomplete <- t.incomplete + 1;
  let fields = [ ("lo", Json.Int lo); ("hi", Json.Int hi) ] in
  (* The store is a multiset (the same key value can be inserted more
     than once); the oracle models presence only, so the answer is
     judged as a set. *)
  let answered = List.sort_uniq Int.compare keys in
  let answer = Hashtbl.create (List.length answered) in
  List.iter (fun k -> Hashtbl.replace answer k ()) answered;
  (* Keys the model knows about inside the queried interval, with their
     definite states at window open. *)
  let phantoms = ref [] and missing = ref [] and hidden = ref [] in
  let uncertain = ref 0 in
  List.iter
    (fun k ->
      if k < lo || k > hi then phantoms := k :: !phantoms
      else
        match state_at t k ~w0:started with
        | Definitely false -> phantoms := k :: !phantoms
        | Definitely true | Uncertain -> ())
    answered;
  Seq.iter
    (fun k ->
      if not (Hashtbl.mem answer k) then
        match state_at t k ~w0:started with
        | Definitely true ->
          if in_hole holes k then hidden := k :: !hidden
          else missing := k :: !missing
        | Uncertain -> incr uncertain
        | Definitely false -> ())
    (Seq.take_while (fun k -> k <= hi) (Key_set.to_seq_from lo (key_index t)));
  let phantoms = List.sort Int.compare !phantoms
  and missing = List.sort Int.compare !missing
  and hidden = List.sort Int.compare !hidden in
  let key_list ks =
    Json.List (List.map (fun k -> Json.Int k) (List.filteri (fun i _ -> i < 8) ks))
  in
  let verdict =
    match (phantoms, missing) with
    | p :: _, _ ->
      Violation
        (Printf.sprintf "phantom key %d: absent (or out of range) but answered"
           p)
    | [], m :: _ ->
      if complete then
        Violation
          (Printf.sprintf
             "false-complete: present key %d omitted with no hole reported" m)
      else
        Violation
          (Printf.sprintf
             "broken tiling: present key %d omitted outside every reported \
              hole" m)
    | [], [] ->
      if hidden <> [] then
        Tolerated "present keys omitted inside reported holes"
      else if !uncertain > 0 && not complete then
        Tolerated "incomplete under concurrent mutation"
      else Pass
  in
  let fields =
    fields
    @ (if phantoms = [] then [] else [ ("phantoms", key_list phantoms) ])
    @ (if missing = [] then [] else [ ("missing", key_list missing) ])
    @ if hidden = [] then [] else [ ("hidden", key_list hidden) ]
  in
  record t ~kind:"range" ~trace ~fields verdict

(* --- Report --------------------------------------------------------- *)

let checked t = t.checked
let violation_count t = t.violations
let tolerated_count t = t.tolerated
let incomplete_count t = t.incomplete

let json t =
  let kinds =
    Hashtbl.fold (fun kind c acc -> (kind, c) :: acc) t.by_kind []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun (kind, c) ->
           ( kind,
             Json.Obj
               [
                 ("checked", Json.Int c.k_checked);
                 ("tolerated", Json.Int c.k_tolerated);
                 ("violations", Json.Int c.k_violations);
               ] ))
  in
  Json.Obj
    [
      ("checked", Json.Int t.checked);
      ("passed", Json.Int t.passed);
      ("tolerated", Json.Int t.tolerated);
      ("violations", Json.Int t.violations);
      ("incomplete_flagged", Json.Int t.incomplete);
      ("lost_keys", Json.Int t.lost_keys);
      ("by_op", Json.Obj kinds);
      ("violation_details", Json.List (List.rev t.details));
      ("violation_details_dropped", Json.Int t.details_dropped);
    ]
