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
    - ["overlay-adversarial"]: one faulted {!Baton_runtime.Driver.run}
      per overlay with a crash surface ({!P2p_overlay.Overlay.S.faults}:
      BATON and the Skip Graph), all under the same combined schedule
      and oracle — the violations column must be identically zero. *)

val run : Params.t -> Table.t list
(** Sweeps run over [Params.sizes]; the mixes and adversarial panels
    use the largest size. Structural checks run on every overlay
    instance; a violated invariant or a failed experiment raises. *)
