(** Per-node load gauge: periodic snapshots of a per-node quantity
    (messages handled, keys stored...) reduced to a fixed-size summary
    per sample, kept in a bounded ring — the raw per-node vector is
    never retained. Feeds Figure 8(f)-style skew analysis: how the
    spread between the mean and the p99/max node evolves over a run. *)

type sample = {
  time : float;
  nodes : int;  (** population the snapshot covered *)
  total : int;
  mean : float;
  p50 : int;  (** nearest-rank percentiles of the per-node values *)
  p95 : int;
  p99 : int;
  max : int;
}

type t

val create : ?capacity:int -> unit -> t
(** A ring retaining the last [capacity] (default 1024) samples.
    @raise Invalid_argument on a non-positive capacity. *)

val sample : t -> time:float -> int array -> unit
(** Reduce one per-node snapshot into the ring. The array is copied and
    sorted internally; the caller's buffer is untouched.
    @raise Invalid_argument on an empty array. *)

val count : t -> int
(** Samples taken so far (including any the ring has since dropped). *)

val samples : t -> sample list
(** Retained samples, oldest first. *)

val latest : t -> sample option

val sample_json : sample -> Json.t
(** One sample as an object with the record's field names ([time] as
    [t]). *)
