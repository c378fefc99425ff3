module Rng = Baton_util.Rng

let load_keys ~seed ~n ~keys_per_node ~insert =
  let gen = Baton_workload.Datagen.uniform (Rng.create (seed * 31 + 7)) in
  let keys = Baton_workload.Datagen.take gen (keys_per_node * n) in
  Array.iter insert keys;
  keys

let build_baton ?(balance = true) ~seed ~n ~keys_per_node () =
  let net = Baton.Network.build ~seed n in
  let cfg = Baton.Balance.default_config ~capacity:(max 8 (4 * keys_per_node)) in
  let insert k =
    let st = Baton.Update.insert net ~from:(Baton.Net.random_peer net) k in
    if balance then
      ignore (Baton.Balance.maybe_balance net cfg (Baton.Net.peer net st.Baton.Update.node))
  in
  let keys = load_keys ~seed ~n ~keys_per_node ~insert in
  (net, keys)

let build_chord ~seed ~n ~keys_per_node =
  let t = Chord.create ~seed () in
  for _ = 1 to n do
    ignore (Chord.join t)
  done;
  let keys = load_keys ~seed ~n ~keys_per_node ~insert:(fun k -> ignore (Chord.insert t k)) in
  (t, keys)

let build_multiway ~seed ~n ~keys_per_node =
  let t =
    Multiway.create ~seed ~domain_lo:Baton_workload.Datagen.domain_lo
      ~domain_hi:Baton_workload.Datagen.domain_hi ()
  in
  for _ = 1 to n do
    ignore (Multiway.join t)
  done;
  let keys =
    load_keys ~seed ~n ~keys_per_node ~insert:(fun k -> ignore (Multiway.insert t k))
  in
  (t, keys)

let time_alone rt f =
  let module Runtime = Baton_runtime.Runtime in
  let result = ref None in
  Runtime.spawn rt f ~on_done:(fun r -> result := Some r);
  Runtime.run rt;
  match !result with
  | Some (Ok v) -> (v, Runtime.now rt)
  | Some (Error e) -> raise e
  | None -> assert false

let mean = function
  | [] -> 0.
  | l -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let avg_over_repeats ~repeats f =
  let rec loop i acc = if i >= repeats then acc else loop (i + 1) (f i :: acc) in
  mean (loop 0 [])
