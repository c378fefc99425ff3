type t = {
  side : [ `Left | `Right ];
  slots : Link.info option array;  (* slot j addresses distance 2^j *)
  mutable stamp : int;  (* bumped by every slot write *)
}

let create pos side =
  { side; slots = Array.make (Position.table_size pos side) None; stamp = 0 }

let side t = t.side
let size t = Array.length t.slots
let stamp t = t.stamp

let write t j info =
  t.slots.(j) <- info;
  t.stamp <- t.stamp + 1

let get t j = if j < 0 || j >= size t then None else t.slots.(j)

let set t j info =
  if j < 0 || j >= size t then invalid_arg "Routing_table.set: slot out of range";
  write t j info

let is_full t = Array.for_all Option.is_some t.slots

let entries t =
  let acc = ref [] in
  for j = size t - 1 downto 0 do
    match t.slots.(j) with Some info -> acc := (j, info) :: !acc | None -> ()
  done;
  !acc

let filled_count t =
  Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 t.slots

let slot_for ~owner t q =
  if q.Position.level <> owner.Position.level then None
  else
    let dist =
      match t.side with
      | `Left -> owner.Position.number - q.Position.number
      | `Right -> q.Position.number - owner.Position.number
    in
    if dist <= 0 then None
    else if dist land (dist - 1) <> 0 then None (* not a power of two *)
    else
      let rec log2 d acc = if d = 1 then acc else log2 (d lsr 1) (acc + 1) in
      let j = log2 dist 0 in
      if j < size t then Some j else None

let update_peer t peer f =
  Array.iteri
    (fun j -> function
      | Some info when info.Link.peer = peer -> write t j (Some (f info))
      | Some _ | None -> ())
    t.slots

let remove_peer t peer =
  Array.iteri
    (fun j -> function
      | Some info when info.Link.peer = peer -> write t j None
      | Some _ | None -> ())
    t.slots

let find t p =
  let n = size t in
  let rec loop j =
    if j >= n then None
    else
      match t.slots.(j) with
      | Some info when p info -> Some info
      | Some _ | None -> loop (j + 1)
  in
  loop 0

let find_farthest t p =
  let rec loop j =
    if j < 0 then None
    else
      match t.slots.(j) with
      | Some info when p info -> Some info
      | Some _ | None -> loop (j - 1)
  in
  loop (size t - 1)

let pp fmt t =
  let side_name = match t.side with `Left -> "left" | `Right -> "right" in
  Format.fprintf fmt "%s[" side_name;
  Array.iteri
    (fun j slot ->
      if j > 0 then Format.fprintf fmt "; ";
      match slot with
      | None -> Format.fprintf fmt "_"
      | Some info -> Format.fprintf fmt "%d@%a" info.Link.peer Position.pp info.Link.pos)
    t.slots;
  Format.fprintf fmt "]"
