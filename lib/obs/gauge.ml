(* Per-node load gauge: periodic snapshots of a per-node quantity
   (messages handled, keys stored...) reduced to a fixed-size summary
   per sample, kept in a bounded ring — the raw per-node vector is
   never retained. Feeds Figure 8(f)-style skew analysis: how the
   spread between the mean and the p99/max node evolves over a run. *)

type sample = {
  time : float;
  nodes : int;
  total : int;
  mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
  max : int;
}

type t = {
  capacity : int;
  ring : sample option array;
  mutable count : int;
}

let create ?(capacity = 1024) () =
  if capacity < 1 then invalid_arg "Gauge.create: capacity < 1";
  { capacity; ring = Array.make capacity None; count = 0 }

let nearest_rank sorted p =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
  sorted.(min (rank - 1) (n - 1))

let sample t ~time loads =
  let n = Array.length loads in
  if n = 0 then invalid_arg "Gauge.sample: no loads";
  let sorted = Array.copy loads in
  Array.sort compare sorted;
  let total = Array.fold_left ( + ) 0 sorted in
  let s =
    {
      time;
      nodes = n;
      total;
      mean = float_of_int total /. float_of_int n;
      p50 = nearest_rank sorted 50.;
      p95 = nearest_rank sorted 95.;
      p99 = nearest_rank sorted 99.;
      max = sorted.(n - 1);
    }
  in
  t.ring.(t.count mod t.capacity) <- Some s;
  t.count <- t.count + 1

let count t = t.count

let samples t =
  let n = min t.count t.capacity in
  let first = t.count - n in
  List.init n (fun i ->
      match t.ring.((first + i) mod t.capacity) with
      | Some s -> s
      | None -> assert false)

let latest t =
  if t.count = 0 then None else t.ring.((t.count - 1) mod t.capacity)

let sample_json s =
  Json.Obj
    [
      ("t", Json.Float s.time);
      ("nodes", Json.Int s.nodes);
      ("total", Json.Int s.total);
      ("mean", Json.Float s.mean);
      ("p50", Json.Int s.p50);
      ("p95", Json.Int s.p95);
      ("p99", Json.Int s.p99);
      ("max", Json.Int s.max);
    ]
