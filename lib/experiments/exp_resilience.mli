(** Extension (not a paper figure): end-to-end resilience under a
    lossy network with unrepaired crashes.

    Sweeps message-loss rate x crashed-peer fraction on one tree.
    Queries run with the full robustness stack: bounded
    retransmissions on timeout, routing around silent or dead peers
    via alternative links, and suspicion-driven repair initiated by
    the routing peers themselves (no god view). Reports the fraction
    of queries answered, the message cost, and the retry / give-up /
    repair event counts. Deterministic: the same params produce a
    byte-identical table. *)

val losses : int list

val run : Params.t -> Table.t
