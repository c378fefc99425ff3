(** Bench regression gate: compare two bench report documents.

    Feeds the CI gate (`baton_cli bench-diff OLD NEW --max-regress P`):
    the {e simulated} sections of the two documents — everything except
    the ["profile"] subtrees — must match {e exactly} (they are pure
    functions of the seed, so any drift is a behaviour change, not
    noise), while the wall-clock throughput inside ["profile"] is only
    required to stay within a tolerance of the old document's (it moves
    with the host machine).

    Input documents are parsed trees ({!Baton_obs.Json.parse}); both
    sides go through the same parser, so writer formatting quirks
    cancel and comparison is structural. *)

type verdict =
  | Pass of { details : string list }
      (** simulated sections identical; per-run throughput notes, each
          followed by the run's profile rows (see {!compare}) *)
  | Schema_mismatch of { old_schema : string; new_schema : string }
      (** the documents are different format versions (or a ["schema"]
          field is missing, reported as ["<missing>"]) — regenerate the
          baseline instead of comparing across formats *)
  | Simulated_mismatch of string list
      (** deterministic fields drifted; each entry is a [$.path: old
          vs new] description of one differing leaf (capped, with a
          trailing ["... and N more"] when clipped) *)
  | Throughput_regress of string list
      (** simulated sections identical but at least one run's
          [profile.events_per_s] fell below the allowed floor; one
          entry per regressed run, with its profile rows *)

val labeled_runs : Baton_obs.Json.t -> (string * Baton_obs.Json.t) list
(** Every run of a document with its label: ["overlay/mix"] from the
    v6+ per-overlay sections, else the mix of each run in a top-level
    ["runs"] list (["run <i>"] when it has none). *)

val compare :
  max_regress_pct:float ->
  old_doc:Baton_obs.Json.t ->
  new_doc:Baton_obs.Json.t ->
  verdict
(** Gate [new_doc] against the baseline [old_doc]. Checks, in order:
    matching ["schema"] fields; byte-exact simulated sections (every
    ["profile"] subtree removed); then, for each run pair where both
    sides carry a profile,
    [new events_per_s >= old * (1 - max_regress_pct / 100)].
    Each such run's note, in [Pass] or [Throughput_regress], goes on to
    list the ["profile.subsystems"] rows as their share of [wall_ms],
    old -> new, one indented line each, the row whose share moved most
    first: the layer a throughput change comes from.
    Runs are gathered from the v6 per-overlay sections (labeled
    ["overlay/mix"] in every detail line), falling back to a v5-style
    top-level run list (labeled by mix) so two pre-v6 baselines still
    compare. Runs without a profile on either side skip the throughput
    check (noted in [Pass.details]) — simulated equality was still
    enforced.
    @raise Invalid_argument if [max_regress_pct] is negative. *)

val exit_code : verdict -> int
(** [Pass] = 0, [Throughput_regress] = 2, mismatches = 1 — so scripts
    can distinguish "the machine got slower" from "the behaviour
    changed". *)

val render : verdict -> string
(** Multi-line human report, one line per detail. *)
