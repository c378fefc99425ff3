(* A monitored, profiled driver run — where the simulator spends its
   own time.

   Everything the repository measures elsewhere lives on the virtual
   clock: message counts, simulated latency, health samples. This
   example turns the instruments around and meters the simulator
   process itself: the driver wires a Profile into the engine's
   dispatch loop, the bus delivery path and its own observer callbacks
   (monitor, series), then prints each layer's self time next to the
   simulated summary. Self times exclude the layers nested inside, and
   the engine.loop row holds the wall outside every span, so the shares
   add up to 100%. The profiler is a pure observer of the machine —
   rerun this with [~profile:false] and the simulated numbers do not
   move by a byte; only the table disappears.

   Run with: dune exec examples/profiled_bench.exe *)

module Driver = Baton_runtime.Driver
module Series = Baton_obs.Series
module Json = Baton_obs.Json

let () =
  let cfg =
    Driver.config ~seed:2005 ~n:300 ~ops:1500 ~clients:32
      ~monitor_every_ms:2000. ~series_every_ms:1000. ~profile:true
      ~mix:Driver.churn_heavy ()
  in
  Printf.printf "running %s: n=%d, %d ops, %d clients...\n%!"
    cfg.Driver.mix.Driver.mix_name cfg.Driver.n cfg.Driver.ops
    cfg.Driver.clients;
  let r = Driver.run cfg in

  (* The simulated world: virtual-clock throughput and message costs —
     deterministic, the same every run. *)
  print_endline (Driver.summary r);
  Printf.printf "  %d messages, %d retries, virtual duration %.0f ms\n"
    r.Driver.messages r.Driver.retries r.Driver.duration_ms;
  (match r.Driver.series with
  | Some s ->
    Printf.printf "  time series: %d samples recorded, %d retained\n"
      (Series.recorded s) (Series.retained s)
  | None -> ());

  (* The machine underneath: wall-clock per subsystem — different on
     every host, which is exactly why these numbers live apart from the
     seeded report fields, in the report's "profile" section. *)
  Printf.printf "\nself-profile: %.1f ms wall, %.0f engine events/s\n"
    r.Driver.wall_ms r.Driver.events_per_s;
  Printf.printf "%-18s %10s %12s %8s\n" "subsystem" "calls" "self ms" "share";
  (match Json.member "subsystems" r.Driver.profile_json with
  | Some (Json.Obj subsystems) ->
    List.iter
      (fun (name, stats) ->
        let num key =
          match Json.member key stats with
          | Some (Json.Float f) -> f
          | Some (Json.Int i) -> float_of_int i
          | _ -> 0.
        in
        Printf.printf "%-18s %10.0f %12.3f %7.1f%%\n" name (num "calls")
          (num "self_ms")
          (if r.Driver.wall_ms > 0. then num "self_ms" /. r.Driver.wall_ms *. 100.
           else 0.))
      subsystems
  | _ -> print_endline "(no profile section)");
  (match Json.member "gc" r.Driver.profile_json with
  | Some gc ->
    let int_of key =
      match Json.member key gc with Some (Json.Int i) -> i | _ -> 0
    in
    Printf.printf "gc: %d minor / %d major collections\n"
      (int_of "minor_collections") (int_of "major_collections")
  | None -> ())
