(** Program-keyed cache of compiled MiniProc programs.

    Keyed on the AST itself (physical, then structural equality under a
    bounded hash), so re-registering the same program or a re-parse of
    the same module text — clone spawn, [Script.replace] retries,
    supervisor restarts, the N=1000 scaling workload — reuses one
    lowered + resolved artifact instead of compiling per instance.
    Purely a memoisation: a miss compiles exactly what an uncached call
    would, and only an equal program can hit. *)

type artifact = {
  a_program : Dr_lang.Ast.program;  (** the program the artifact was built from *)
  a_code : (string, Ir.proc_code) Hashtbl.t;  (** lowered table *)
  a_resolved : Resolve.program;  (** slot-resolved form for {!Machine.create} *)
}

val prepare : Dr_lang.Ast.program -> artifact
(** Lower + resolve [program], or return the cached artifact for a
    structurally identical program. *)

val hits : unit -> int
val misses : unit -> int
val entries : unit -> int

val reset : unit -> unit
(** Drop all entries and zero the counters (test isolation). *)
