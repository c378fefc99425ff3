(** Minimal JSON reader/writer for telemetry export.

    The repository deliberately avoids external dependencies; this
    module covers exactly what the exporters and the regression gate
    need. Output is deterministic and schema-stable: object fields are
    emitted sorted by key regardless of the order a producer assembled
    them in, and floats go through one fixed format — so two same-seed
    runs produce byte-identical files. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val float_repr : float -> string
(** The writer's float format: integral values as ["%.1f"], everything
    else as ["%.12g"]. *)

val to_string : t -> string
(** Compact (single-line) rendering. *)

val to_pretty_string : t -> string
(** Two-space-indented rendering for human-facing summaries. Field
    order and number formats match {!to_string}. *)

val parse : string -> (t, string) result
(** Recursive-descent reader for the documents this module writes
    (bench reports, traces, series) — standard JSON. Numbers parse to
    [Int] when integral with no ['.'], ['e'] or leading-zero baggage,
    else to [Float], matching what the writer emits. The error carries
    the failing offset. *)

val member : string -> t -> t option
(** [member key (Obj fields)] is the field's value; [None] for a
    missing key or a non-object. *)
