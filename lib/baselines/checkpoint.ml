module Machine = Dr_interp.Machine

type stats = {
  checkpoints_taken : int;
  instructions_run : int;
  snapshot_bytes_total : int;
  snapshot_cost : float;
}

type t = {
  m : Machine.t;
  interval : int;
  mutable last_checkpoint : (Machine.t * int) option;
      (* snapshot and the instruction count at which it was taken *)
  mutable taken : int;
  mutable bytes_total : int;
  mutable next_due : int;
}

(* modelled time per snapshotted byte *)
let cost_per_byte = 0.001

let create ~interval ~io program =
  if interval <= 0 then invalid_arg "Checkpoint.create: interval must be positive";
  { m = Machine.create ~io program;
    interval;
    last_checkpoint = None;
    taken = 0;
    bytes_total = 0;
    next_due = interval }

let machine t = t.m

let take_checkpoint t =
  let snapshot = Machine.clone t.m ~io:(Dr_interp.Io_intf.null ()) in
  t.last_checkpoint <- Some (snapshot, Machine.instr_count t.m);
  t.taken <- t.taken + 1;
  t.bytes_total <- t.bytes_total + Machine.state_size t.m;
  t.next_due <- Machine.instr_count t.m + t.interval

let run t ~max_steps =
  let steps = ref 0 in
  while Machine.status t.m = Machine.Ready && !steps < max_steps do
    Machine.step t.m;
    incr steps;
    if Machine.instr_count t.m >= t.next_due then take_checkpoint t
  done

let stats t =
  { checkpoints_taken = t.taken;
    instructions_run = Machine.instr_count t.m;
    snapshot_bytes_total = t.bytes_total;
    snapshot_cost = float_of_int t.bytes_total *. cost_per_byte }

let rollback t ~io =
  match t.last_checkpoint with
  | None -> None
  | Some (snapshot, at_count) ->
    let restored = Machine.clone snapshot ~io in
    let lost_work = Machine.instr_count t.m - at_count in
    Some (restored, lost_work)
