(** Shared experiment plumbing: deterministic network builders, a
    one-operation timer and averaging helpers. *)

val build_baton :
  ?balance:bool ->
  seed:int -> n:int -> keys_per_node:int -> unit -> Baton.Net.t * int array
(** A BATON network of [n] peers loaded with [keys_per_node * n]
    uniform keys inserted through routed operations, with the paper's
    load balancing active during the load (disable with
    [~balance:false]). Returns the network and the inserted keys. *)

val build_chord : seed:int -> n:int -> keys_per_node:int -> Chord.t * int array

val build_multiway :
  seed:int -> n:int -> keys_per_node:int -> Multiway.t * int array

val time_alone : Baton_runtime.Runtime.t -> (unit -> 'a) -> 'a * float
(** [time_alone rt f] runs [f] as the only fiber on [rt], which must be
    fresh (clock at 0), and returns its result with its virtual
    completion time in ms. Without fan-out ([Search.range] with no
    [~par]) that is the serial sum of its hop latencies.
    Re-raises whatever [f] raised. *)

val mean : float list -> float
(** Arithmetic mean; 0. for the empty list. *)

val avg_over_repeats : repeats:int -> (int -> float) -> float
(** [avg_over_repeats ~repeats f] averages [f seed_index] over
    [repeats] runs. *)
