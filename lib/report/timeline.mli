(** ASCII timeline of an application run: one lane per instance showing
    its lifespan, with reconfiguration events marked, followed by a
    chronological event log. Used by [drc run --timeline] and the
    examples to visualise reconfigurations. *)

val render : ?events:string list -> Dr_bus.Bus.t -> string
(** [render bus] draws every instance the bus has ever hosted, one lane
    per incarnation; an event marks only the lane alive at its time.
    The bar area is 60 columns wide.
    [events] selects which trace categories appear in the log below the
    bars (default: script, signal, state, lifecycle, crash, fault,
    rollback, supervisor). *)
