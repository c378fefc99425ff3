module Rng = Baton_util.Rng

type fault_config = {
  drop_rate : float;
  transient_rate : float;
  transient_len : int;
}

type fault_state = {
  config : fault_config;
  frng : Rng.t;
  (* peer id -> number of further incoming messages it will ignore *)
  stunned : (int, int) Hashtbl.t;
}

(* A network partition: every peer is assigned to an island, and
   ordered island pairs in [blocked] cannot exchange messages. The
   assignment lives in a plain hashtable (no closures) so a partitioned
   bus still marshals. Peers absent from the table — e.g. joined while
   the partition was up — are reachable from everywhere: a fresh peer
   has no island history. *)
type partition_state = {
  island : (int, int) Hashtbl.t;
  blocked : (int * int) list;
}

(* Gray failures: peers that are never declared dead but whose links
   silently degrade — an elevated per-message drop probability and a
   latency multiplier the runtime applies to delivery delays. The drop
   PRNG is separate from the base fault model's so installing gray
   peers never perturbs the base drop/stun sequence. *)
type gray_state = {
  grng : Rng.t;
  (* peer id -> (extra drop probability, latency slowdown factor) *)
  gray_peers : (int, float * float) Hashtbl.t;
}

(* Delivery probe: a pure wall-clock observer bracketing every message
   transit. Holds a closure, so {!unhooked} leaves it out. *)
type probe = { before : unit -> unit; after : unit -> unit }

type outcome = Delivered | Timed_out

type t = {
  metrics : Metrics.t;
  failed : (int, unit) Hashtbl.t;
  mutable faults : fault_state option;
  mutable partition : partition_state option;
  mutable gray : gray_state option;
  mutable probe : probe option;
  (* Hop suspension: installed by a concurrent runtime so {!send} (and
     callers of {!wait}) park the sending fiber until the virtual clock
     reaches the delivery or timeout instant. [None] keeps every send
     synchronous. *)
  mutable wait : (src:int -> dst:int -> outcome -> unit) option;
}

exception Unreachable of int
exception Timeout of int

let drop_event = "fault.drop"
let transient_event = "fault.transient"
let partition_event = "fault.partition"
let gray_event = "fault.gray"

let create () =
  {
    metrics = Metrics.create ();
    failed = Hashtbl.create 64;
    faults = None;
    partition = None;
    gray = None;
    probe = None;
    wait = None;
  }

let set_probe t p = t.probe <- p
let probe t = t.probe
let set_wait t w = t.wait <- w
let wait_installed t = Option.is_some t.wait

(* The bus as [Marshal] may see it: a shallow copy sharing every piece
   of state, minus the probe and the wait hook (closures cannot be
   serialized). [t] itself keeps its hooks. *)
let unhooked t = { t with probe = None; wait = None }

let metrics t = t.metrics

let is_failed t id = Hashtbl.mem t.failed id

let set_faults t ?(transient_len = 2) ~seed ~drop_rate ~transient_rate () =
  if drop_rate < 0. || drop_rate > 1. then
    invalid_arg "Bus.set_faults: drop_rate outside [0, 1]";
  if transient_rate < 0. || transient_rate > 1. then
    invalid_arg "Bus.set_faults: transient_rate outside [0, 1]";
  if transient_len < 1 then invalid_arg "Bus.set_faults: transient_len < 1";
  t.faults <-
    Some
      {
        config = { drop_rate; transient_rate; transient_len };
        frng = Rng.create seed;
        stunned = Hashtbl.create 64;
      }

let clear_faults t = t.faults <- None
let faults_enabled t = Option.is_some t.faults

let fault_config t =
  match t.faults with None -> None | Some f -> Some f.config

let stun t id ~msgs =
  match t.faults with
  | None -> invalid_arg "Bus.stun: no fault model installed"
  | Some f -> Hashtbl.replace f.stunned id (max 1 msgs)

(* Decide the fate of one transmitted message under the fault model.
   A stunned destination consumes one of its silent slots without
   advancing the PRNG; otherwise exactly one draw decides drop /
   stun-and-drop / deliver, so the fault sequence is a pure function of
   the fault seed and the order of sends. *)
let fault_verdict t dst =
  match t.faults with
  | None -> `Deliver
  | Some f -> (
    match Hashtbl.find_opt f.stunned dst with
    | Some n ->
      if n <= 1 then Hashtbl.remove f.stunned dst
      else Hashtbl.replace f.stunned dst (n - 1);
      `Transient
    | None ->
      let u = Rng.float f.frng 1.0 in
      if u < f.config.drop_rate then `Drop
      else if u < f.config.drop_rate +. f.config.transient_rate then begin
        Hashtbl.replace f.stunned dst (f.config.transient_len - 1);
        `Transient
      end
      else `Deliver)

(* --- Partitions ---------------------------------------------------- *)

let set_partition t ~assign ~blocked =
  let island = Hashtbl.create 64 in
  List.iter (fun (peer, i) -> Hashtbl.replace island peer i) assign;
  t.partition <- Some { island; blocked }

let clear_partition t = t.partition <- None
let partition_active t = Option.is_some t.partition

let partition_blocked t ~src ~dst =
  match t.partition with
  | None -> false
  | Some p -> (
    match (Hashtbl.find_opt p.island src, Hashtbl.find_opt p.island dst) with
    | Some i, Some j -> i <> j && List.mem (i, j) p.blocked
    | _, _ -> false)

(* --- Gray failures -------------------------------------------------- *)

let set_gray_model t ~seed =
  t.gray <- Some { grng = Rng.create seed; gray_peers = Hashtbl.create 16 }

let clear_gray_model t = t.gray <- None

let set_gray_peer t id ~extra_drop ~slow =
  if extra_drop < 0. || extra_drop > 1. then
    invalid_arg "Bus.set_gray_peer: extra_drop outside [0, 1]";
  if slow < 1. then invalid_arg "Bus.set_gray_peer: slow < 1";
  match t.gray with
  | None -> invalid_arg "Bus.set_gray_peer: no gray model installed"
  | Some g -> Hashtbl.replace g.gray_peers id (extra_drop, slow)

let clear_gray_peer t id =
  match t.gray with None -> () | Some g -> Hashtbl.remove g.gray_peers id

let gray_count t =
  match t.gray with None -> 0 | Some g -> Hashtbl.length g.gray_peers

let is_gray t id =
  match t.gray with None -> false | Some g -> Hashtbl.mem g.gray_peers id

let latency_factor t ~src ~dst =
  match t.gray with
  | None -> 1.0
  | Some g ->
    let slow id =
      match Hashtbl.find_opt g.gray_peers id with
      | Some (_, s) -> s
      | None -> 1.0
    in
    Float.max (slow src) (slow dst)

(* Extra drop probability for a hop touching a gray endpoint: the worse
   of the two ends decides (the message crosses both NICs, the sick one
   dominates). The gray PRNG is consulted only when that probability is
   positive, so traffic between healthy peers leaves the gray stream —
   and therefore the whole fault sequence — untouched. *)
let gray_dropped t ~src ~dst =
  match t.gray with
  | None -> false
  | Some g ->
    let drop id =
      match Hashtbl.find_opt g.gray_peers id with
      | Some (d, _) -> d
      | None -> 0.
    in
    let p = Float.max (drop src) (drop dst) in
    p > 0. && Rng.float g.grng 1.0 < p

let deliver t ~src ~dst ~kind =
  begin
    (* The message is transmitted — and therefore counted — whether or
       not the destination is alive or the network loses it; a missing
       answer is how the sender discovers the problem (Section III-C). *)
    Metrics.record t.metrics ~dst ~kind;
    if is_failed t dst then raise (Unreachable dst);
    (* Fault layers, outermost first: a partition blocks the message
       before it reaches the destination's island, so it consumes
       neither a gray draw nor a stun slot; a gray drop loses it next;
       only then does the base drop/stun model see it. *)
    if partition_blocked t ~src ~dst then begin
      Metrics.event t.metrics partition_event;
      raise (Timeout dst)
    end;
    if gray_dropped t ~src ~dst then begin
      Metrics.event t.metrics gray_event;
      raise (Timeout dst)
    end;
    match fault_verdict t dst with
    | `Deliver -> ()
    | `Drop ->
      Metrics.event t.metrics drop_event;
      raise (Timeout dst)
    | `Transient ->
      Metrics.event t.metrics transient_event;
      raise (Timeout dst)
  end

let post t ~src ~dst ~kind =
  if src <> dst then
    match t.probe with
    | None -> deliver t ~src ~dst ~kind
    | Some p -> (
      (* Timeouts and unreachables are ordinary outcomes here, so the
         probe's closing half must survive them. Bracketed by hand
         (rather than [Fun.protect]) so a probed send allocates no
         thunk. *)
      p.before ();
      match deliver t ~src ~dst ~kind with
      | () -> p.after ()
      | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        p.after ();
        Printexc.raise_with_backtrace e bt)

let wait t ~src ~dst outcome =
  match t.wait with None -> () | Some w -> w ~src ~dst outcome

(* [post], then wait out the hop outside the probe bracket: a probe span
   must not straddle a suspension. A lost or refused message still
   costs the sender its timeout before the exception reaches it. *)
let send t ~src ~dst ~kind =
  match t.wait with
  | Some w when src <> dst -> (
    match post t ~src ~dst ~kind with
    | () -> w ~src ~dst Delivered
    | exception ((Timeout _ | Unreachable _) as e) ->
      let bt = Printexc.get_raw_backtrace () in
      w ~src ~dst Timed_out;
      Printexc.raise_with_backtrace e bt)
  | Some _ | None -> post t ~src ~dst ~kind

let clear_stun t id =
  match t.faults with None -> () | Some f -> Hashtbl.remove f.stunned id

let fail t id =
  if not (is_failed t id) then begin
    Hashtbl.add t.failed id ();
    (* A crash obliterates transient state: whatever silence the fault
       model still had scheduled for this peer dies with it. *)
    clear_stun t id
  end

let revive t id =
  Hashtbl.remove t.failed id;
  (* The id restarts in a fresh role; a stun scheduled before the crash
     must not silently swallow its first messages afterwards. *)
  clear_stun t id

let failed_count t = Hashtbl.length t.failed
