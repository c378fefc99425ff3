(* Streaming digest of operation durations (virtual milliseconds).

   Per-operation hop and message counts are integers the paper reasons
   about. The concurrent runtime additionally produces
   latencies, which are floats of simulated time; this digest buckets
   them to tenths of a millisecond on the integer {!Histogram}, so a
   million-operation run stays bounded by the number of distinct
   rounded durations while p50/p95/p99 stay within 0.1 ms of exact.
   Everything here is a pure function of the recorded values: two
   same-seed runs serialize byte-identically. *)

module Histogram = Baton_util.Histogram

type t = Histogram.t

(* Tenth-of-a-millisecond buckets. *)
let scale = 10.

let create () : t = Histogram.create ()

let add t ms =
  if ms < 0. then invalid_arg "Timing.add: negative duration";
  Histogram.add t (int_of_float (Float.round (ms *. scale)))

let count t = Histogram.total t

let mean t = Histogram.mean t /. scale

let percentile t p =
  if Histogram.total t = 0 then 0.
  else float_of_int (Histogram.percentile t p) /. scale

let max_ms t =
  match Histogram.max_value t with
  | None -> 0.
  | Some v -> float_of_int v /. scale

(* Schema-stable summary object; zeros when nothing was recorded so
   the field set never depends on the data. *)
let json t =
  Json.Obj
    [
      ("ops", Json.Int (count t));
      ("mean_ms", Json.Float (mean t));
      ("p50_ms", Json.Float (percentile t 50.));
      ("p95_ms", Json.Float (percentile t 95.));
      ("p99_ms", Json.Float (percentile t 99.));
      ("max_ms", Json.Float (max_ms t));
    ]
