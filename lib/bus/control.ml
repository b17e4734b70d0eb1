module Engine = Dr_sim.Engine
module Trace = Dr_sim.Trace
module Wal = Dr_wal.Wal

exception Controller_crash

type 'r codec = { kind : 'r -> int; encode : 'r -> bytes }

type t = {
  engine : Engine.t;
  trace : Trace.t;
  mutable wal : Wal.t option;
  mutable appends : int;
  mutable crash_at : int option;
  mutable incarnation : int;
      (* [n > 0]: controller [n] is live; [-n]: controller [n] crashed
         and no successor has started yet *)
  mutable last_id : int;  (* script and wave ids share one space *)
  mutable open_scripts : int;  (* the checkpoint gate *)
  corrupt_images : (string, unit) Hashtbl.t;
}

let create engine trace =
  { engine;
    trace;
    wal = None;
    appends = 0;
    crash_at = None;
    incarnation = 1;
    last_id = 0;
    open_scripts = 0;
    corrupt_images = Hashtbl.create 4 }

let record t category fmt =
  Trace.notef t.trace ~time:(Engine.now t.engine) category fmt

let set_wal t w = t.wal <- Some w
let wal t = t.wal
let appends t = t.appends

(* ------------------------------------------------------ incarnations *)

let incarnation t = t.incarnation
let live t inc = inc > 0 && inc = t.incarnation
let down t = t.incarnation < 0

let recover t =
  if down t then begin
    t.incarnation <- 1 - t.incarnation;
    t.open_scripts <- 0;  (* whatever was open died with the controller *)
    record t "recover" "controller restarted"
  end

(* ------------------------------------------------------------ faults *)

(* The crash lands immediately after the [after]-th append completes
   (record durable, operation applied), so every logged record's
   operation has taken effect and undo is exact. The engine guard
   swallows the unwind: a dead controller does not stop the fleet. *)
let arm_crash t ~after =
  t.crash_at <- Some after;
  Engine.set_guard t.engine (function Controller_crash -> true | _ -> false);
  record t "fault" "controller crash armed after control-log append %d" after

let tick t =
  t.appends <- t.appends + 1;
  match t.crash_at with
  | Some n when t.appends >= n ->
    t.crash_at <- None;
    t.incarnation <- -t.incarnation;
    record t "fault" "controller crashed after control-log append %d"
      t.appends;
    raise Controller_crash
  | _ -> ()

let arm_image_corruption t ~instance =
  Hashtbl.replace t.corrupt_images instance ();
  record t "fault" "image corruption armed for %s" instance

let consume_image_corruption t ~instance =
  if Hashtbl.mem t.corrupt_images instance then begin
    Hashtbl.remove t.corrupt_images instance;
    record t "fault" "injected image corruption: %s" instance;
    true
  end
  else false

(* ------------------------------------------------ write-ahead steps *)

let append t codec r =
  match t.wal with
  | None -> false
  | Some wal ->
    ignore (Wal.append wal ~kind:(codec.kind r) (codec.encode r) : int);
    true

let step t codec r apply =
  let logged = append t codec r in
  let v = apply () in
  if logged then tick t;
  v

let note t ~inc codec r =
  if live t inc then (try step t codec r ignore with Controller_crash -> ());
  live t inc

let fresh_id t =
  t.last_id <- t.last_id + 1;
  t.last_id

let note_id t id = t.last_id <- max t.last_id id

let hold t = t.open_scripts <- t.open_scripts + 1
let release t = t.open_scripts <- max 0 (t.open_scripts - 1)
let open_scripts t = t.open_scripts

let open_script t codec begin_record =
  match t.wal with
  | None -> 0
  | Some _ ->
    let id = fresh_id t in
    ignore (append t codec (begin_record id) : bool);
    hold t;
    tick t;
    id

(* a checkpoint garbage-collects everything before it, so it waits for
   the gate: no script open, and this much log accumulated *)
let checkpoint_after = 64 * 1024

let close_script t codec terminator =
  if append t codec terminator then begin
    release t;
    tick t;
    match t.wal with
    | Some wal
      when t.open_scripts = 0
           && Wal.bytes_since_checkpoint wal >= checkpoint_after ->
      Wal.checkpoint wal
    | _ -> ()
  end
