(* Simulator self-profiling: where the *process* spends its wall-clock
   time while the simulated world runs.

   One self-time span stack. [leave] bills a span its duration minus
   the time its child spans covered, and adds the whole duration to its
   parent's inner time; outermost durations accumulate in [busy], and
   the [engine.loop] row is the rest of the elapsed wall. So the rows
   tile the profiled interval — provided no span stays open while its
   fiber is parked, which is why only non-suspending probes feed it.

   Probes read the wall clock and the GC and write private state: no
   message, no PRNG, no simulated clock. A profiled run counts
   byte-identical simulated metrics to an unprofiled one, and every
   number here describes the host, never the seeded world. *)

module Engine = Baton_sim.Engine
module Bus = Baton_sim.Bus

type row = {
  mutable calls : int;
  mutable self : float;  (* wall seconds, child spans excluded *)
}

type frame = { row : row; t0 : float; mutable inner : float }

type t = {
  rows : (string, row) Hashtbl.t;
  mutable stack : frame list;
  mutable busy : float;  (* wall seconds covered by outermost spans *)
  started : float;
  gc0 : Gc.stat;
  mutable stopped : float option;
}

let s_dispatch = "engine.dispatch"
let s_delivery = "bus.delivery"
let s_loop = "engine.loop"
let s_monitor = "monitor.tick"
let s_series = "series.sample"
let s_oracle = "oracle.check"

let now () = Unix.gettimeofday ()

let create () =
  {
    rows = Hashtbl.create 8;
    stack = [];
    busy = 0.;
    started = now ();
    gc0 = Gc.quick_stat ();
    stopped = None;
  }

let row t name =
  match Hashtbl.find_opt t.rows name with
  | Some r -> r
  | None ->
    let r = { calls = 0; self = 0. } in
    Hashtbl.add t.rows name r;
    r

(* Charge [d] seconds of finished work to whatever encloses it: the
   open span's inner time, or the outermost total. *)
let bill_parent t d =
  match t.stack with
  | f :: _ -> f.inner <- f.inner +. d
  | [] -> t.busy <- t.busy +. d

let push t row = t.stack <- { row; t0 = now (); inner = 0. } :: t.stack
let enter t name = push t (row t name)

let leave t =
  match t.stack with
  | [] -> invalid_arg "Profile.leave: no open span"
  | f :: rest ->
    let d = now () -. f.t0 in
    f.row.calls <- f.row.calls + 1;
    f.row.self <- f.row.self +. d -. f.inner;
    t.stack <- rest;
    bill_parent t d

let span t name f =
  enter t name;
  Fun.protect ~finally:(fun () -> leave t) f

let engine_probe t =
  let r = row t s_dispatch in
  { Engine.before = (fun () -> push t r); after = (fun () -> leave t) }

(* Deliveries are the most frequent span and never have children, so
   they skip the frame stack. *)
let bus_probe t =
  let r = row t s_delivery in
  let t0 = ref 0. in
  {
    Bus.before = (fun () -> t0 := now ());
    after =
      (fun () ->
        let d = now () -. !t0 in
        r.calls <- r.calls + 1;
        r.self <- r.self +. d;
        bill_parent t d);
  }

let stop t =
  match t.stopped with
  | Some _ -> ()
  | None -> t.stopped <- Some (now ())

let elapsed_ms t =
  ((match t.stopped with Some s -> s | None -> now ()) -. t.started) *. 1000.

let calls t name =
  match Hashtbl.find_opt t.rows name with Some r -> r.calls | None -> 0

let self_ms t name =
  if String.equal name s_loop then elapsed_ms t -. (t.busy *. 1000.)
  else match Hashtbl.find_opt t.rows name with
    | Some r -> r.self *. 1000.
    | None -> 0.

let subsystems t =
  (s_loop, 1, self_ms t s_loop)
  :: Hashtbl.fold (fun name r acc -> (name, r.calls, r.self *. 1000.) :: acc)
       t.rows []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let events t = calls t s_dispatch

let events_per_s t =
  let ms = elapsed_ms t in
  if ms > 0. then float_of_int (events t) /. ms *. 1000. else 0.

let now_ms () = now () *. 1000.

let gc_json t =
  let g = Gc.quick_stat () in
  let g0 = t.gc0 in
  Json.Obj
    [
      ("minor_collections", Json.Int (g.minor_collections - g0.minor_collections));
      ("major_collections", Json.Int (g.major_collections - g0.major_collections));
      ("compactions", Json.Int (g.compactions - g0.compactions));
      ("minor_words", Json.Float (g.minor_words -. g0.minor_words));
      ("promoted_words", Json.Float (g.promoted_words -. g0.promoted_words));
      ("major_words", Json.Float (g.major_words -. g0.major_words));
      ("top_heap_words", Json.Int g.top_heap_words);
    ]

let json t =
  Json.Obj
    [
      ("wall_ms", Json.Float (elapsed_ms t));
      ("events", Json.Int (events t));
      ("events_per_s", Json.Float (events_per_s t));
      ("gc", gc_json t);
      ( "subsystems",
        Json.Obj
          (List.map
             (fun (name, calls, self) ->
               ( name,
                 Json.Obj
                   [ ("calls", Json.Int calls); ("self_ms", Json.Float self) ]
               ))
             (subsystems t)) );
    ]

let table t =
  let total = elapsed_ms t in
  let rows =
    subsystems t
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%-18s %10s %12s %7s\n" "subsystem" "calls" "self ms"
       "share");
  List.iter
    (fun (name, calls, self) ->
      Buffer.add_string buf
        (Printf.sprintf "%-18s %10d %12.2f %6.1f%%\n" name calls self
           (if total > 0. then self /. total *. 100. else 0.)))
    rows;
  Buffer.add_string buf
    (Printf.sprintf "%-18s %10d %12.2f  (%.0f events/s)\n" "elapsed"
       (events t) total (events_per_s t));
  Buffer.contents buf
