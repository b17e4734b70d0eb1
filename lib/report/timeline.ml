module Bus = Dr_bus.Bus
module Trace = Dr_sim.Trace

let default_events =
  [ "script"; "signal"; "state"; "lifecycle"; "crash"; "fault"; "rollback";
    "supervisor" ]

(* The glyph an event draws on its instance's lane (the legend under the
   lanes); a loss marks the sending instance. *)
let marker : Trace.event -> (string * char) option = function
  | Signal { instance } -> Some (instance, 'S')
  | Divulged { instance; _ } -> Some (instance, 'D')
  | Deposited { instance } -> Some (instance, 'R')
  | Crashed { instance; _ } -> Some (instance, 'X')
  | Lost { src = instance, _; _ } -> Some (instance, 'L')
  | Restored { instance; _ } -> Some (instance, 'B')
  | _ -> None

(* columns of the bar area *)
let width = 60

let render ?(events = default_events) bus =
  let buf = Buffer.create 1024 in
  let roster = Bus.roster bus in
  let t_end = Float.max (Bus.now bus) 1e-9 in
  let column time =
    let c = int_of_float (time /. t_end *. float_of_int (width - 1)) in
    max 0 (min (width - 1) c)
  in
  let name_width =
    List.fold_left
      (fun acc (r : Bus.roster_entry) ->
        max acc (String.length r.r_instance))
      8 roster
  in
  Buffer.add_string buf
    (Printf.sprintf "%-*s t=0%s t=%.1f\n" name_width ""
       (String.make (max 0 (width - 8)) ' ')
       t_end);
  let entries = Trace.entries (Bus.trace bus) in
  List.iter
    (fun (r : Bus.roster_entry) ->
      let bar = Bytes.make width ' ' in
      let ended = Option.value ~default:Float.infinity r.r_ended in
      let start_col = column r.r_started
      and end_col = column (Float.min ended t_end) in
      for i = start_col to end_col do
        Bytes.set bar i '='
      done;
      Bytes.set bar start_col '[';
      (match r.r_ended with Some _ -> Bytes.set bar end_col ']' | None -> ());
      (* a name can return (a rollback restores [compute] under its own
         name): a lane takes only the markers inside its own lifespan *)
      List.iter
        (fun (e : Trace.entry) ->
          match marker e.event with
          | Some (instance, glyph)
            when String.equal instance r.r_instance
                 && r.r_started <= e.time && e.time <= ended ->
            Bytes.set bar (column e.time) glyph
          | _ -> ())
        entries;
      let state =
        match r.r_status with
        | None -> "removed"
        | Some status -> Fmt.str "%a" Dr_interp.Machine.pp_status status
      in
      Buffer.add_string buf
        (Printf.sprintf "%-*s %s  %s on %s (%s)\n" name_width r.r_instance
           (Bytes.to_string bar) r.r_module r.r_host state))
    roster;
  Buffer.add_string buf
    "\n\
    \  [ start   ] end   S signal   D divulge   R restore   X crash   L loss  \
    \ B rollback\n";
  let logged =
    List.filter
      (fun (e : Trace.entry) -> List.mem (Trace.category e.event) events)
      entries
  in
  if logged <> [] then begin
    Buffer.add_string buf "\nevents:\n";
    List.iter
      (fun (e : Trace.entry) ->
        Buffer.add_string buf
          (Printf.sprintf "  [%8.2f] %-10s %s\n" e.time
             (Trace.category e.event) (Trace.detail e.event)))
      logged
  end;
  Buffer.contents buf
