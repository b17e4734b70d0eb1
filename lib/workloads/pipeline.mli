(** A three-stage stream-processing application: source → scale → offset
    → sink. Both middle stages are prepared for reconfiguration and
    carry visible state (a processed-items counter), so replacing or
    migrating them mid-stream must neither lose items nor reset the
    counters. *)

val mil : string
val sources : (string * string) list
val hosts : Dr_bus.Bus.host list

val load : unit -> Dynrecon.System.t
val start : Dynrecon.System.t -> Dr_bus.Bus.t

val sink_values : Dr_bus.Bus.t -> int list
(** Values the sink has printed, in order. *)

val expected_prefix : int -> int list
(** The first [k] values the pipeline must emit for input 1,2,3,…:
    [v = x*2 + 100]. *)
