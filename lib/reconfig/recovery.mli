(** Crash recovery: rebuild the reconfiguration journal from the
    control log and finish what the dead controller started.

    The crash model is the controller's, not the fleet's: an armed
    [ctlcrash@N] fault ({!Dr_bus.Control.arm_crash}) kills the
    controller between a durable control record and the next journalled
    primitive, while the application modules keep running. {!replay}
    reads the durable records back ({!Dr_wal.Wal.records}), restarts
    the controller, and — for every script the log leaves unterminated —
    restores its journal and rolls it back: a script with no terminator
    is fully undone, a script whose [Abort] landed but whose
    [Abort_done] did not resumes its rollback exactly where it stopped
    (the logged [Undo_done] steps are skipped, the [i/N] numbering is
    preserved). Committed and fully-aborted scripts need nothing. The
    log is then checkpointed, so the next restart replays only what
    comes after. *)

(** What the log says happened to one script. *)
type status =
  | Committed  (** terminated cleanly; nothing to do *)
  | Aborted  (** rollback ran to completion before the log ended *)
  | Rolling_back of { undone : int; reason : string }
      (** [Abort] logged, [undone] [Undo_done] steps followed, no
          [Abort_done] — the controller died mid-rollback *)
  | In_flight  (** no terminator at all — died mid-script *)

type script = {
  sc_sid : int;
  sc_label : string;
  sc_entries : Journal.entry list;  (** application order *)
  sc_status : status;
}

(** The wave records a {!Rolling} controller logs around its per-replica
    scripts share the WAL but form their own, coarser grammar. *)

type wave_status =
  | Wave_committed
  | Wave_aborted of string
  | Wave_open  (** no terminator — the controller died mid-wave *)

type wave = {
  wv_wid : int;
  wv_target : string;  (** module each slot is being upgraded to *)
  wv_group : (string * string) list;
      (** [(slot, instance at wave start)] for every member *)
  wv_done : (string * string) list;
      (** [(slot, new instance)] for slots whose canary committed,
          in completion order *)
  wv_status : wave_status;
}

type log = {
  records : int;  (** live records read *)
  scripts : script list;  (** in first-[Begin] order *)
  waves : wave list;  (** in [Wave_begin] order *)
}

val scan : Dr_wal.Wal.t -> (log, string) result
(** Decode and validate the durable control records from the checkpoint
    on, in one pass: per-script and per-wave. Fails loudly — never
    guesses — on a record that does not decode, a record for an unknown
    script or wave id, an entry after a terminator, an [Undo_done] out
    of sequence, or a duplicate [Begin]. *)

type report = {
  rp_records : int;  (** control records replayed *)
  rp_scripts : int;  (** scripts seen on the log *)
  rp_committed : int;
  rp_aborted : int;  (** rollbacks already complete on the log *)
  rp_rolled_back : int;  (** in-flight scripts rolled back by replay *)
  rp_resumed : int;  (** mid-rollback scripts resumed by replay *)
  rp_waves : wave list;  (** the waves on the replayed log *)
}

val replay : Dr_bus.Bus.t -> (report, string) result
(** Recover the controller of [bus] from its attached control log
    ({!Dr_bus.Bus.set_wal} must have been called): start the next
    controller incarnation, advance the id space past every script and
    wave on the log, unwind the unterminated scripts, and checkpoint.
    Idempotent: a log with no unterminated scripts recovers to a
    no-op. [Error] when no
    log is attached or {!scan} rejects the log. *)

val pp_report : Format.formatter -> report -> unit
