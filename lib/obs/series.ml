(* Bounded ring of periodic telemetry samples on the simulated clock.

   A fixed array indexed modulo capacity, so a million-sample run
   costs the capacity, not the run length. Values arrive as (name,
   float) pairs and are stored as given; serialization sorts names
   through the Json writer, so export order never depends on how a
   producer assembled a sample. *)

type sample = { time : float; values : (string * float) list }

type t = {
  cap : int;
  ring : sample option array;
  mutable count : int;
}

let create ?(capacity = 4096) () =
  if capacity < 1 then invalid_arg "Series.create: capacity < 1";
  { cap = capacity; ring = Array.make capacity None; count = 0 }

let capacity t = t.cap

let record t ~time values =
  t.ring.(t.count mod t.cap) <- Some { time; values };
  t.count <- t.count + 1

let recorded t = t.count
let retained t = min t.count t.cap
let dropped t = t.count - retained t

let samples t =
  let n = retained t in
  let first = t.count - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.cap) with
      | Some s -> s
      | None -> assert false)

let latest t =
  if t.count = 0 then None else t.ring.((t.count - 1) mod t.cap)

let sample_json s =
  Json.Obj
    (("t", Json.Float s.time)
    :: List.map (fun (name, v) -> (name, Json.Float v)) s.values)

let json_fields t =
  [
    ("recorded", Json.Int (recorded t));
    ("dropped", Json.Int (dropped t));
    ("samples", Json.List (List.map sample_json (samples t)));
  ]

let jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Json.to_string (sample_json s));
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.contents buf
