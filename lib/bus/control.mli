(** The reconfiguration controller's durable state: the control plane
    that drives the bus (the data plane) through its primitives.

    One value per bus ({!Bus.control}) owns the control-log handle, the
    controller-crash fault model, the controller's {e incarnation}, the
    shared script/wave id space, the checkpoint gate, and armed
    image corruptions. The reconfiguration layer ({!Dr_reconfig.Journal},
    {!Dr_reconfig.Rolling}, {!Dr_reconfig.Recovery}) reaches the log only
    through the write-ahead {!step}: append a record, apply the
    operation, then tick the crash counter. With no log attached nothing
    is appended and nothing ticks, so logless runs trace exactly as
    before.

    It sits in [dr_bus] rather than [dr_reconfig] because the bus's
    model-checker labels read the checkpoint gate and the fault plane
    arms crashes and corruptions here. *)

type t

val create : Dr_sim.Engine.t -> Dr_sim.Trace.t -> t
(** A live controller (incarnation 1) with no log attached. *)

exception Controller_crash
(** Raised out of a write-ahead step when an armed controller crash
    fires. Never escapes the engine loop: {!arm_crash} installs a guard
    that abandons the in-flight event. *)

val set_wal : t -> Dr_wal.Wal.t -> unit
(** Attach (or, after a restart, re-attach) the control log. *)

val wal : t -> Dr_wal.Wal.t option

(** {1 Incarnations}

    Every controller continuation — a script's deadline, retry, divulge
    callback and pre-copy hook, a wave's steps — captures the
    incarnation when it starts and does nothing once that incarnation
    is no longer {!live}. A crash ends the live incarnation; {!recover}
    starts the next one, so a continuation of the dead controller stays
    silent after recovery too. *)

val incarnation : t -> int

val live : t -> int -> bool
(** [live t inc]: [inc] is the running controller. *)

val down : t -> bool
(** An armed crash fired and {!recover} has not run since. *)

val recover : t -> unit
(** Start the next incarnation and reset the checkpoint gate (whatever
    was open died with the controller). No-op while the controller is
    up. Recovery replay runs after this. *)

(** {1 Faults} *)

val arm_crash : t -> after:int -> unit
(** Arm a single-shot crash after the [after]-th control-log append
    (1-based, counted over the bus lifetime — see {!appends}). The crash
    lands after the logged operation applied, so undo of the logged
    prefix is exact. *)

val appends : t -> int
(** Control-log appends so far (the crash-sweep index space). *)

val arm_image_corruption : t -> instance:string -> unit
(** Corrupt [instance]'s next captured state image, once. *)

val consume_image_corruption : t -> instance:string -> bool
(** [true] exactly once after an arm: the caller must corrupt the
    in-flight encoded image. Records the injection as a ["fault"]. *)

(** {1 Write-ahead steps} *)

type 'r codec = { kind : 'r -> int; encode : 'r -> bytes }
(** How a layer's records reach the log ({!Dr_reconfig.Persist.codec}).
    Encoding runs only when a log is attached. *)

val step : t -> 'r codec -> 'r -> (unit -> 'a) -> 'a
(** [step t codec r apply]: append [r] durably, run [apply], then count
    the append — firing an armed crash ({!Controller_crash}; the
    incarnation ends first) when the count is reached. Without a log
    only [apply] runs. *)

val note : t -> inc:int -> 'r codec -> 'r -> bool
(** A step with no operation to apply, on behalf of incarnation [inc]
    (a wave's progress records): nothing unless [inc] is {!live}; a
    crash the tick fires is absorbed, not raised. Returns whether [inc]
    is still live afterwards. *)

(** {1 Script ids and the checkpoint gate}

    A checkpoint garbage-collects every record before it, so the log is
    checkpointed only while no script or wave is open. *)

val fresh_id : t -> int
(** Next id of the space scripts and waves share. *)

val note_id : t -> int -> unit
(** Advance the id space to at least [id] (recovery, with ids read back
    from the log, so a restarted controller never reuses one). *)

val open_script : t -> 'r codec -> (int -> 'r) -> int
(** With a log: take a {!fresh_id}, append its begin record, hold the
    gate, tick. Returns the id; [0] and nothing else without a log. *)

val close_script : t -> 'r codec -> 'r -> unit
(** With a log: append the terminator, release the gate, tick, and
    checkpoint once the gate is free and enough log has accumulated.
    No-op without a log. *)

val hold : t -> unit
(** Hold the gate without a begin record (a wave for its whole run;
    recovery for each script it is about to unwind). *)

val release : t -> unit

val open_scripts : t -> int
(** Holders of the gate. *)
