(* Bench regression gate: exact comparison of the simulated sections,
   tolerance comparison of the wall-clock throughput.

   The split mirrors the determinism boundary drawn in [Driver]: every
   report field outside "profile" is a pure function of the seed, so
   two runs of the same build must agree to the byte — a difference
   there is a behaviour change the gate should fail loudly on, with the
   path of the first drifted leaves. The "profile" subtree is the host
   machine talking (wall clock, GC), so it is stripped from the exact
   comparison and only its events_per_s is checked, against a floor. *)

module Json = Baton_obs.Json

type verdict =
  | Pass of { details : string list }
  | Schema_mismatch of { old_schema : string; new_schema : string }
  | Simulated_mismatch of string list
  | Throughput_regress of string list

let rec strip_profile (j : Json.t) =
  match j with
  | Json.Obj fields ->
    Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if String.equal k "profile" then None else Some (k, strip_profile v))
         fields)
  | Json.List items -> Json.List (List.map strip_profile items)
  | (Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ | Json.String _) as v
    -> v

let scalar_label = function
  | Json.Null -> "null"
  | Json.Bool b -> string_of_bool b
  | Json.Int i -> string_of_int i
  | Json.Float f -> Printf.sprintf "%.12g" f
  | Json.String s -> Printf.sprintf "%S" s
  | Json.List _ -> "<list>"
  | Json.Obj _ -> "<object>"

let diff_paths ?(limit = 20) a b =
  let out = ref [] in
  let total = ref 0 in
  let note path msg =
    if !total < limit then out := Printf.sprintf "%s: %s" path msg :: !out;
    incr total
  in
  let rec go path a b =
    match (a, b) with
    | Json.Obj fa, Json.Obj fb ->
      let keys =
        List.sort_uniq String.compare (List.map fst fa @ List.map fst fb)
      in
      List.iter
        (fun k ->
          let sub = path ^ "." ^ k in
          match (List.assoc_opt k fa, List.assoc_opt k fb) with
          | Some va, Some vb -> go sub va vb
          | Some _, None -> note sub "missing in new"
          | None, Some _ -> note sub "missing in old"
          | None, None -> ())
        keys
    | Json.List xa, Json.List xb ->
      if List.length xa <> List.length xb then
        note path
          (Printf.sprintf "list length %d vs %d" (List.length xa)
             (List.length xb))
      else
        List.iteri
          (fun i (va, vb) -> go (Printf.sprintf "%s[%d]" path i) va vb)
          (List.combine xa xb)
    | a, b ->
      if a <> b then
        note path
          (Printf.sprintf "%s vs %s" (scalar_label a) (scalar_label b))
  in
  go "$" a b;
  (List.rev !out, !total)

let schema_of doc =
  match Json.member "schema" doc with
  | Some (Json.String s) -> s
  | Some _ | None -> "<missing>"

let mix_of i run =
  match Json.member "mix" run with
  | Some (Json.String s) -> s
  | _ -> Printf.sprintf "run %d" i

(* Every run in the document, labeled "overlay/mix". Reads the v6
   layout (runs grouped in per-overlay sections) and falls back to a
   v5-style top-level "runs" list (label = mix alone) so the gate can
   still compare two pre-v6 baselines. *)
let labeled_runs doc =
  match Json.member "overlays" doc with
  | Some (Json.List sections) ->
    List.concat_map
      (fun section ->
        let overlay =
          match Json.member "overlay" section with
          | Some (Json.String s) -> s
          | _ -> "<overlay>"
        in
        match Json.member "runs" section with
        | Some (Json.List runs) ->
          List.mapi (fun i run -> (overlay ^ "/" ^ mix_of i run, run)) runs
        | _ -> [])
      sections
  | _ -> (
    match Json.member "runs" doc with
    | Some (Json.List runs) ->
      List.mapi (fun i run -> (mix_of i run, run)) runs
    | _ -> [])

let number k j =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some _ | None -> None

let events_per_s_of run = Option.bind (Json.member "profile" run) (number "events_per_s")

(* Each profile row's share of the run's wall_ms. *)
let shares run =
  let profile = Option.value (Json.member "profile" run) ~default:Json.Null in
  match (number "wall_ms" profile, Json.member "subsystems" profile) with
  | Some wall, Some (Json.Obj rows) when wall > 0. ->
    List.map
      (fun (name, row) ->
        (name, Option.value (number "self_ms" row) ~default:0. /. wall))
      rows
  | _ -> []

(* The profile rows of a run pair, the one whose share of wall_ms moved
   most first, each as old -> new: the layer a throughput change comes
   from. A row missing on one side has share 0 there. *)
let row_moves old_run new_run =
  let olds = shares old_run and news = shares new_run in
  let share name l = Option.value (List.assoc_opt name l) ~default:0. in
  List.sort_uniq String.compare (List.map fst olds @ List.map fst news)
  |> List.map (fun name -> (name, share name olds, share name news))
  |> List.stable_sort (fun (_, o1, n1) (_, o2, n2) ->
         Float.compare (Float.abs (n2 -. o2)) (Float.abs (n1 -. o1)))
  |> List.map (fun (name, o, n) ->
         Printf.sprintf "\n  %s %.1f%% -> %.1f%%" name (100. *. o) (100. *. n))
  |> String.concat ""

let compare ~max_regress_pct ~old_doc ~new_doc =
  if max_regress_pct < 0. then
    invalid_arg "Bench_diff.compare: negative max_regress_pct";
  let old_schema = schema_of old_doc and new_schema = schema_of new_doc in
  if
    String.equal old_schema "<missing>"
    || (not (String.equal old_schema new_schema))
  then Schema_mismatch { old_schema; new_schema }
  else begin
    let diffs, total =
      diff_paths (strip_profile old_doc) (strip_profile new_doc)
    in
    if diffs <> [] then
      Simulated_mismatch
        (diffs
        @
        if total > List.length diffs then
          [ Printf.sprintf "... and %d more" (total - List.length diffs) ]
        else [])
    else begin
      (* Simulated sections are identical, so the run lists pair up
         one-to-one; only the wall-clock throughput can still differ. *)
      let details = ref [] and regressions = ref [] in
      List.iter
        (fun ((label, old_run), (_, new_run)) ->
          match (events_per_s_of old_run, events_per_s_of new_run) with
          | Some old_eps, Some new_eps when old_eps > 0. ->
            let floor = old_eps *. (1. -. (max_regress_pct /. 100.)) in
            let line =
              Printf.sprintf "%s: %.0f -> %.0f events/s (floor %.0f)%s" label
                old_eps new_eps floor
                (row_moves old_run new_run)
            in
            if new_eps < floor then regressions := line :: !regressions
            else details := line :: !details
          | _, _ ->
            details :=
              (label ^ ": no throughput sample on one side, check skipped")
              :: !details)
        (List.combine (labeled_runs old_doc) (labeled_runs new_doc));
      if !regressions <> [] then Throughput_regress (List.rev !regressions)
      else Pass { details = List.rev !details }
    end
  end

let exit_code = function
  | Pass _ -> 0
  | Schema_mismatch _ | Simulated_mismatch _ -> 1
  | Throughput_regress _ -> 2

let render = function
  | Pass { details } ->
    String.concat "\n"
      ("bench-diff: PASS (simulated metrics identical)" :: details)
  | Schema_mismatch { old_schema; new_schema } ->
    Printf.sprintf
      "bench-diff: SCHEMA MISMATCH (%s vs %s) — regenerate the baseline"
      old_schema new_schema
  | Simulated_mismatch lines ->
    String.concat "\n"
      ("bench-diff: SIMULATED METRICS DIFFER (behaviour change)" :: lines)
  | Throughput_regress lines ->
    String.concat "\n" ("bench-diff: THROUGHPUT REGRESSION" :: lines)
