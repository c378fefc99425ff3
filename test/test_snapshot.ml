(* Network snapshots: save/load roundtrip and deterministic
   continuation. *)

module N = Baton.Network
module Net = Baton.Net
module Rng = Baton_util.Rng

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let drive net seed ops =
  (* A deterministic op sequence whose outcome summarises the state. *)
  let rng = Rng.create seed in
  let before = N.messages net in
  let found = ref 0 in
  for _ = 1 to ops do
    match Rng.int rng 4 with
    | 0 ->
      let id = N.join net in
      N.leave net id
    | 1 -> N.insert net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999)
    | _ ->
      if N.lookup net (Rng.int_in_range rng ~lo:1 ~hi:999_999_999) then incr found
  done;
  (N.messages net - before, !found, N.size net)

let test_roundtrip_preserves_state () =
  let net = N.build ~seed:7 60 in
  let rng = Rng.create 3 in
  let keys = Array.init 200 (fun _ -> Rng.int_in_range rng ~lo:1 ~hi:999_999_999) in
  Array.iter (N.insert net) keys;
  let path = tmp "baton_snapshot_test.bin" in
  Net.save net path;
  let restored = Net.load path in
  Sys.remove path;
  Alcotest.(check int) "size" (N.size net) (N.size restored);
  Alcotest.(check int) "messages" (N.messages net) (N.messages restored);
  Alcotest.(check int) "height" (N.height net) (N.height restored);
  Array.iter
    (fun k -> Alcotest.(check bool) "data survived" true (N.lookup restored k))
    keys;
  Baton.Check.all restored

let test_restored_network_continues_identically () =
  let net = N.build ~seed:11 50 in
  let path = tmp "baton_snapshot_cont.bin" in
  Net.save net path;
  let twin = Net.load path in
  Sys.remove path;
  let a = drive net 99 120 in
  let b = drive twin 99 120 in
  Alcotest.(check (triple int int int)) "identical continuation" a b;
  Baton.Check.all net;
  Baton.Check.all twin

let test_save_refuses_deferred () =
  let net = N.build ~seed:13 10 in
  Net.set_defer net true;
  ignore (N.join net);
  Alcotest.check_raises "pending notifications"
    (Invalid_argument "Net.save: deferred notifications pending") (fun () ->
      Net.save net (tmp "never_written.bin"));
  Net.flush_deferred net;
  let path = tmp "baton_snapshot_after_flush.bin" in
  Net.save net path;
  Sys.remove path

let test_load_rejects_garbage () =
  let path = tmp "baton_garbage.bin" in
  let oc = open_out_bin path in
  output_string oc "definitely not a snapshot";
  close_out oc;
  Alcotest.check_raises "bad magic" (Failure "Net.load: not a BATON snapshot")
    (fun () -> ignore (Net.load path));
  Sys.remove path

(* A snapshot of an earlier format version is named as such, not
   taken for garbage — its tag is one byte shorter than the current
   one, and is reported whole either way. *)
let test_load_rejects_previous_version () =
  let path = tmp "baton_v9.bin" in
  let write body =
    let oc = open_out_bin path in
    output_string oc body;
    close_out oc
  in
  let previous =
    Net.Incompatible_snapshot { found = "BATON-NET-v9"; expected = "BATON-NET-v11" }
  in
  write "BATON-NET-v9marshalled state of the old layout";
  Alcotest.check_raises "previous version" previous (fun () ->
      ignore (Net.load path));
  write "BATON-NET-v9";
  Alcotest.check_raises "bare version tag" previous (fun () ->
      ignore (Net.load path));
  Sys.remove path

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip_preserves_state;
    Alcotest.test_case "deterministic continuation" `Quick test_restored_network_continues_identically;
    Alcotest.test_case "refuses deferred" `Quick test_save_refuses_deferred;
    Alcotest.test_case "rejects garbage" `Quick test_load_rejects_garbage;
    Alcotest.test_case "rejects previous version" `Quick test_load_rejects_previous_version;
  ]
