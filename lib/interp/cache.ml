(* Program cache: parse/typecheck/transform happen upstream, but
   lowering + resolution used to run once per [Bus.register_program] —
   and every retry, supervisor restart or repeated deployment of the same
   module text paid it again. The cache keys on the AST itself and
   stores the lowered table together with the resolved artifact, so N
   instances of one module share a single compilation.

   Equality decides every hit: physical equality first (a caller that
   re-registers the very same program, like the model checker booting
   one loaded configuration per execution, pays no traversal), then
   structural equality, which also matches separate parses of one
   source. The hash is bounded, so two programs that differ only deep
   inside may share a bucket; that costs a comparison, never a wrong
   artifact. *)

type artifact = {
  a_program : Dr_lang.Ast.program;
  a_code : (string, Ir.proc_code) Hashtbl.t;
  a_resolved : Resolve.program;
}

module Programs = Hashtbl.Make (struct
  type t = Dr_lang.Ast.program

  let equal (a : t) b = a == b || a = b
  let hash (p : t) = Hashtbl.hash_param 64 256 p
end)

let table : artifact Programs.t = Programs.create 64

let hit_count = ref 0
let miss_count = ref 0

(* Bound the cache so long-running sessions that compile thousands of
   distinct programs (property tests, benches) cannot grow it without
   limit; on overflow the whole table is dropped — correctness never
   depends on a hit. *)
let max_entries = 512

let prepare (program : Dr_lang.Ast.program) : artifact =
  match Programs.find_opt table program with
  | Some artifact ->
    incr hit_count;
    artifact
  | None ->
    incr miss_count;
    let code = Lower.lower_program program in
    let resolved = Resolve.resolve_program program code in
    let artifact = { a_program = program; a_code = code; a_resolved = resolved } in
    if Programs.length table >= max_entries then Programs.reset table;
    Programs.replace table program artifact;
    artifact

let hits () = !hit_count
let misses () = !miss_count
let entries () = Programs.length table

let reset () =
  Programs.reset table;
  hit_count := 0;
  miss_count := 0
