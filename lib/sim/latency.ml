module Rng = Baton_util.Rng

type t = { base_ms : float; jitter_ms : float; seed : int }

let create ?(seed = 7) ?(base_ms = 20.) ?(jitter_ms = 60.) () =
  if base_ms < 0. || jitter_ms < 0. then invalid_arg "Latency.create: negative latency";
  { base_ms; jitter_ms; seed }

(* A pure function of (seed, src, dst): one draw from a per-pair stream,
   recomputed on every call. Cheaper than a memo table keyed by the
   pair, and it keeps no per-pair state. *)
let of_pair t ~src ~dst =
  let rng = Rng.create (t.seed + (src * 1_000_003) + (dst * 7919)) in
  let u = Rng.float rng 1.0 in
  let jitter = -.t.jitter_ms *. log (1. -. (u *. 0.999)) in
  t.base_ms +. jitter

let measure t bus f =
  let total = ref 0. in
  let unsubscribed = ref false in
  let sub =
    Bus.subscribe bus (fun ~src ~dst ~kind:_ ->
        total := !total +. of_pair t ~src ~dst)
  in
  let finish () =
    if not !unsubscribed then begin
      Bus.unsubscribe bus sub;
      unsubscribed := true
    end
  in
  match f () with
  | result ->
    finish ();
    (result, !total)
  | exception e ->
    finish ();
    raise e
