(** Checkpointing baseline (paper §4, first paragraph).

    "Our approach does not use checkpointing, in which the entire state
    of the process is saved periodically, and execution is rolled back
    to the most recent checkpoint in order to restore the process."

    This module implements exactly that alternative, on top of the
    machine-specific {!Dr_interp.Machine.clone}: a driver runs a machine
    and snapshots its complete state every [interval] instructions. A
    recovery/migration rolls the process back to the last checkpoint,
    losing the work since. The benchmarks compare its steady-state cost
    (periodic snapshots, paid forever) with the transformation's cost
    (flag tests, with capture paid only at reconfiguration time). *)

type stats = {
  checkpoints_taken : int;
  instructions_run : int;
  snapshot_bytes_total : int;  (** sum of state sizes at each snapshot *)
  snapshot_cost : float;
      (** modelled time cost: 0.001 per snapshotted byte *)
}

type t

val create :
  interval:int ->
  io:Dr_interp.Io_intf.t ->
  Dr_lang.Ast.program ->
  t
(** [interval] is the number of instructions between checkpoints. *)

val machine : t -> Dr_interp.Machine.t

val run : t -> max_steps:int -> unit
(** Run the machine, taking checkpoints on schedule. *)

val stats : t -> stats

val rollback : t -> io:Dr_interp.Io_intf.t -> (Dr_interp.Machine.t * int) option
(** Restore from the most recent checkpoint: a fresh machine positioned
    at the snapshot, plus the number of instructions of lost work
    (progress since that snapshot). [None] if no checkpoint exists. *)
