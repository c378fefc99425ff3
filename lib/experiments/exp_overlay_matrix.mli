(** Overlay matrix: every registered overlay against the same workload.

    The comparative-laboratory experiment: BATON,
    Chord, the multiway tree and the Skip Graph answer identical seeded
    workloads behind {!P2p_overlay.Overlay.S}, with messages counted by
    the same {!Baton_sim.Metrics} — so the panels compare routing
    structure, not harness differences. Four tables:

    - ["overlay-exact"]: mean messages per exact-match query vs N, with
      the log2 N yardstick;
    - ["overlay-range"]: the same for range queries (chord honestly
      reports "unsupported");
    - ["overlay-mixes"]: the runtime driver's canonical mixes per
      overlay at equal message accounting, each run judged by the
      consistency oracle;
    - ["overlay-adversarial"]: BATON under the combined fault schedule
      on the concurrent runtime, and the Skip Graph under the same
      episode shapes driven at the bus — the violations column must be
      identically zero. *)

val run : Params.t -> Table.t list
(** Sweeps run over [Params.sizes]; the mixes and adversarial panels
    use the largest size. Structural checks run on every overlay
    instance; a violated invariant or a failed experiment raises. *)

val skip_graph_adversarial :
  seed:int ->
  n:int ->
  keys_per_node:int ->
  range_span:int ->
  ops:int ->
  int * int * Baton_obs.Oracle.t * int
(** The Skip Graph under the adversarial episode shapes (key-order
    partition, gray peers, correlated crash burst) driven directly at
    the bus, every completed op judged by the consistency oracle over
    the message clock. Returns [(completed, failed, oracle, messages)];
    runs the full structural audit before returning. Exposed for the
    test suite. *)
