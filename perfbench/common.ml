(* Shared plumbing of the benchmark workloads: the host clock, sample
   statistics, the in-memory span recorder of the traced run, the result
   every workload hands back to [Main], host-speed sampling and the
   round loop. *)

let now = Unix.gettimeofday

let ok_exn what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* {1 Samples} *)

(* Linear interpolation between closest ranks (R type 7). *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Top of the major heap so far, in MB (words of the host's size). *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* {1 Metrics} *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_samples : int;  (* observations the value summarises *)
}

let metric ?(samples = 1) m_name m_unit m_value =
  { m_name; m_value; m_unit; m_samples = samples }

(* {1 Spans}

   Spans of the traced run are recorded from the benchmark's own code,
   around calls into the layers: name, host start and end, the span that
   caused it, and the operation (round, migration, exploration...) it
   belongs to. They stay in memory until [Main] writes them out. Calls
   too frequent for a span each (monitor steps) are only counted and
   timed, through [add]. *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_op : int;
  sp_parent : int;  (* 0 = root *)
  sp_start : float;
  sp_end : float;
}

type tracer = {
  mutable spans : span list;
  mutable next_id : int;
  mutable op : int;
  mutable parent : int;
  totals : (string, float ref) Hashtbl.t;  (* host seconds per name *)
  counts : (string, int ref) Hashtbl.t;
}

let tracer () =
  { spans = [];
    next_id = 1;
    op = 0;
    parent = 0;
    totals = Hashtbl.create 32;
    counts = Hashtbl.create 32 }

let bump tbl name zero f =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := f !r
  | None -> Hashtbl.replace tbl name (ref (f zero))

let add tr name dt =
  bump tr.totals name 0.0 (fun t -> t +. dt);
  bump tr.counts name 0 succ

let count tr ?(by = 1) name = bump tr.counts name 0 (fun c -> c + by)

let total tr name =
  match Hashtbl.find_opt tr.totals name with Some r -> !r | None -> 0.0

let calls tr name =
  match Hashtbl.find_opt tr.counts name with Some r -> !r | None -> 0

(* Start a new operation: later spans carry its id. *)
let new_op tr = tr.op <- tr.op + 1

(* Run [f] inside a span [name]; its host time also accrues to
   [total tr name]. *)
let span tr name f =
  let id = tr.next_id in
  tr.next_id <- id + 1;
  let parent = tr.parent in
  tr.parent <- id;
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      tr.parent <- parent;
      tr.spans <-
        { sp_id = id;
          sp_name = name;
          sp_op = tr.op;
          sp_parent = parent;
          sp_start = t0;
          sp_end = t1 }
        :: tr.spans;
      add tr name (t1 -. t0))

(* [span] when tracing, a plain call otherwise. *)
let traced tr name f = match tr with Some tr -> span tr name f | None -> f ()

let write_spans tr path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
        s.sp_id s.sp_name s.sp_op s.sp_parent s.sp_start s.sp_end)
    (List.rev tr.spans);
  close_out oc

(* A Storage.t that times and counts every call into the memory
   backend. *)
let timed_storage tr (s : Dr_wal.Storage.t) =
  let timed f = span tr "wal.storage" f in
  { s with
    Dr_wal.Storage.st_list = (fun () -> timed s.st_list);
    st_read = (fun blob -> timed (fun () -> s.st_read blob));
    st_write =
      (fun blob b ->
        count tr ~by:(Bytes.length b) "wal.bytes";
        timed (fun () -> s.st_write blob b));
    st_append =
      (fun blob b ->
        count tr "wal.appends";
        count tr ~by:(Bytes.length b) "wal.bytes";
        timed (fun () -> s.st_append blob b));
    st_delete = (fun blob -> timed (fun () -> s.st_delete blob));
    st_sync =
      (fun () ->
        count tr "wal.syncs";
        timed s.st_sync) }

(* Put the bus's control log on fresh memory storage, timed when
   tracing. *)
let memory_wal tr bus =
  let s = Dr_wal.Storage.storage_of_mem (Dr_wal.Storage.memory ()) in
  let s = match tr with Some tr -> timed_storage tr s | None -> s in
  Dr_bus.Bus.set_wal bus (ok_exn "wal" (Dr_wal.Wal.create s))

(* {1 Results} *)

type result = {
  r_checks : (string * bool) list;  (* output checks, in order *)
  r_attempted : int;
  r_failed : int;
  r_e2e : metric list;  (* the BENCHMARK.json end-to-end metrics *)
  r_detail : metric list;  (* the same figures under workload names *)
  r_layers : metric list;  (* per-layer metrics, traced run only *)
}

(* {1 Host speed}

   The host is shared with other tenants, and its speed drifts by tens of
   percent over minutes: a fixed CPU loop timed every few seconds varied
   by 40% peak to peak. Every run therefore also samples a fixed,
   allocation-free reference kernel between operations (at most every
   100 ms, outside every measured interval). The kernel chases pointers
   through a 256 KiB single-cycle permutation, with a data-dependent
   branch per step, then writes one byte per cache line of an 8 MiB
   buffer: memory latency and memory bandwidth, which the workloads feel
   too. End-to-end host times are reported scaled to a host on which
   the kernel takes [reference_kernel_s]: [t * reference / median
   kernel]. The raw figures are printed next to them.

   The kernel's starting state does not depend on the program. Its
   table and buffer are bigarrays, outside the OCaml heap, so the
   collector never scans them, and before each timed pass an untimed
   read of the 8 MiB buffer (four times the core's L2) evicts the table
   from L1 and L2. Each pass thus starts from the shared L3, whatever
   the program did just before. Only a program whose working set rivals
   the host's L3 (105 MiB) could still move it. *)

module A1 = Bigarray.Array1

let chase_bits = 15

let chase_next : (int, Bigarray.int_elt, Bigarray.c_layout) A1.t =
  let n = 1 lsl chase_bits in
  let order = Array.init n (fun i -> i) in
  let st = Random.State.make [| 7 |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let next = A1.create Bigarray.int Bigarray.c_layout n in
  Array.iteri (fun k v -> next.{v} <- order.((k + 1) land (n - 1))) order;
  next

let chase steps =
  let p = ref 0 and acc = ref 0 in
  for i = 1 to steps do
    p := A1.unsafe_get chase_next !p;
    if !p land 3 = 0 then acc := !acc + i else acc := !acc lxor !p
  done;
  ignore (Sys.opaque_identity !acc)

(* Filled, so that every page is backed by its own memory. *)
let sweep_buf : (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t =
  let b = A1.create Bigarray.char Bigarray.c_layout (8 lsl 20) in
  A1.fill b '\001';
  b

(* Read one byte of every 64-byte line of [sweep_buf]. *)
let evict_caches () =
  let acc = ref 0 in
  for i = 0 to (A1.dim sweep_buf / 64) - 1 do
    acc := !acc + Char.code (A1.unsafe_get sweep_buf (i * 64))
  done;
  ignore (Sys.opaque_identity !acc)

(* Write one byte of every 64-byte line of [sweep_buf]. *)
let write_lines () =
  for i = 0 to (A1.dim sweep_buf / 64) - 1 do
    A1.unsafe_set sweep_buf (i * 64) '\002'
  done

(* About the kernel's median on the 2-vCPU host the benchmark was
   sized on, so that scaled figures read close to raw ones there. *)
let reference_kernel_s = 3.0e-3

let kernel_samples = ref []
let last_sample = ref neg_infinity

(* Sample the kernel if 100 ms have passed since the last sample; the
   host seconds spent, for callers inside a measured interval. *)
let sample_speed () =
  let t0 = now () in
  if t0 -. !last_sample < 0.1 then 0.0
  else begin
    evict_caches ();
    let t1 = now () in
    chase 100_000;
    write_lines ();
    let t2 = now () in
    kernel_samples := (t2 -. t1) :: !kernel_samples;
    last_sample := t2;
    t2 -. t0
  end

(* How much slower than the reference host this run's host was. *)
let slowdown () = median !kernel_samples /. reference_kernel_s

(* Run [round] at least once, then again while the host-time budget
   [seconds] has room for at least half of the last round, so a run
   ends close to its budget whatever a round costs. Resets the speed
   samples; returns the heap peak after the first round, a fixed amount
   of work, so that figure does not depend on run length. *)
let for_seconds seconds round =
  kernel_samples := [];
  last_sample := neg_infinity;
  let t0 = now () in
  let rec go first_heap =
    ignore (sample_speed () : float);
    let r0 = now () in
    round ();
    let t = now () in
    let first_heap =
      match first_heap with Some h -> h | None -> peak_heap_mb ()
    in
    if t -. t0 +. ((t -. r0) /. 2.0) < seconds then go (Some first_heap)
    else first_heap
  in
  go None

(* The end-to-end metrics of BENCHMARK.json, host times scaled to the
   reference host (see {1 Host speed}): [setup] samples in s, per-sample
   [rates] in 1/s, per-operation [op_ms]. *)
let end_to_end ~setup ~heap ~rates ~op_ms =
  let f = slowdown () in
  [ metric "setup_s" "s" (median setup /. f) ~samples:(List.length setup);
    metric "peak_heap_mb" "MB" heap;
    metric "throughput_per_s" "1/s" (median rates *. f)
      ~samples:(List.length rates);
    metric "op_ms_p50" "ms" (quantile 0.5 op_ms /. f)
      ~samples:(List.length op_ms) ]

(* The operations' p95, scaled like [end_to_end]. A per-layer metric:
   it follows the host's slow bursts and did not repeat within a tenth
   from run to run. *)
let op_ms_p95 op_ms =
  metric "op_ms_p95" "ms"
    (quantile 0.95 op_ms /. slowdown ())
    ~samples:(List.length op_ms)
