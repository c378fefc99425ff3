(** Bounded time-series telemetry rings.

    A [Series.t] collects periodic samples of named numeric values —
    metrics counters, queue depths, cache hit rates, monitor health —
    stamped with the {e simulated} clock, into a bounded ring that
    evicts oldest-first once full. Unlike {!Profile}, everything here is
    a pure function of simulated state: two same-seed runs record
    byte-identical series, so the exported JSON/JSONL belongs with the
    seeded-comparison fields of the bench report (the wall-clock world
    stays in the [profile] section).

    The sampler itself lives with whoever owns the engine (the driver
    schedules an [Engine.every] tick); this module only stores, bounds
    and serializes. *)

type sample = {
  time : float;  (** simulated milliseconds *)
  values : (string * float) list;  (** as given to {!record} *)
}

type t

val create : ?capacity:int -> unit -> t
(** Ring retaining the last [capacity] (default 4096) samples.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : t -> int

val record : t -> time:float -> (string * float) list -> unit
(** Append one sample, evicting the oldest when the ring is full. *)

val recorded : t -> int
(** Samples ever recorded (monotone, not bounded). *)

val retained : t -> int
(** Samples currently held: [min (recorded t) (capacity t)]. *)

val dropped : t -> int
(** Samples evicted so far: [recorded - retained]. *)

val samples : t -> sample list
(** Retained samples, oldest first. *)

val latest : t -> sample option

val sample_json : sample -> Json.t
(** [{"t": time, name: value, ...}] — names must not collide with
    ["t"]. *)

val json_fields : t -> (string * Json.t) list
(** [("recorded", _); ("dropped", _); ("samples", [...])] — spliced by
    the driver into the report's [timeseries] object next to its own
    fields. *)

val jsonl : t -> string
(** One {!sample_json} per line, oldest first — the artifact format CI
    uploads. Deterministic for same-seed runs. *)
