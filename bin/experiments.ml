(* experiments — regenerate every table and figure of the paper's
   evaluation (Figure 8 panels a-i).

   With no size flag it runs a reduced ("quick") sweep in under a
   minute; `--full` runs the paper's 1000..10000 sweep; `--figure
   fig8X` restricts to one panel's experiment group; `--markdown FILE`
   additionally writes the tables as markdown (the format used by
   EXPERIMENTS.md). *)

module P = Baton_experiments.Params
module Table = Baton_experiments.Table
module Runner = Baton_experiments.Runner

open Cmdliner

let full_arg = Arg.(value & flag & info [ "full" ] ~doc:"Run the paper's full sweep.")

let tiny_arg =
  Arg.(
    value & flag
    & info [ "tiny" ] ~doc:"Run a minimal sweep (smoke tests; seconds).")

let figure_arg =
  Arg.(
    value & opt (some string) None
    & info [ "figure" ] ~docv:"ID" ~doc:"Run only the group containing figure ID (e.g. fig8a).")

let markdown_arg =
  Arg.(
    value & opt (some string) None
    & info [ "markdown" ] ~docv:"FILE" ~doc:"Also write the tables as markdown to FILE.")

let telemetry_arg =
  Arg.(
    value & flag
    & info [ "telemetry" ]
        ~doc:
          "Add BATON p95/p99 per-query hop columns to the query \
           tables.")

let run full tiny figure markdown telemetry =
  let params = if full then P.full else if tiny then P.tiny else P.quick in
  let params = if telemetry then { params with P.telemetry = true } else params in
  Printf.printf "Running %s parameters (sizes %s, %d repeats)...\n\n%!"
    (if full then "FULL" else if tiny then "tiny" else "quick")
    (String.concat "," (List.map string_of_int params.P.sizes))
    params.P.repeats;
  let tables =
    match figure with
    | Some id ->
      (try Runner.run_one id params
       with Not_found ->
         Printf.eprintf "unknown figure id %s\n" id;
         exit 1)
    | None ->
      Runner.run_all
        ~on_table:(fun t ->
          print_string (Table.render t);
          print_newline ())
        params
  in
  (match figure with
  | Some _ ->
    List.iter
      (fun t ->
        print_string (Table.render t);
        print_newline ())
      tables
  | None -> ());
  match markdown with
  | None -> ()
  | Some file ->
    let oc = open_out file in
    output_string oc "<!-- generated by bin/experiments.ml -->\n\n";
    List.iter (fun t -> output_string oc (Table.markdown t ^ "\n")) tables;
    close_out oc;
    Printf.printf "markdown written to %s\n" file

let main =
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate the BATON paper's evaluation figures.")
    Term.(const run $ full_arg $ tiny_arg $ figure_arg $ markdown_arg $ telemetry_arg)

let () = exit (Cmd.eval main)
