module Bus = Dr_bus.Bus
module Control = Dr_bus.Control

type entry = Persist.entry

type t = {
  bus : Bus.t;
  ctl : Control.t;
  label : string;
  sid : int;  (* 0 when the bus has no control log *)
  mutable entries : entry list;  (* newest first *)
}

let create bus ~label =
  let ctl = Bus.control bus in
  let sid =
    Control.open_script ctl Persist.codec (fun sid ->
        Persist.Begin { sid; label })
  in
  { bus; ctl; label; sid; entries = [] }

(* Recovery: rebuild a journal from entries read back off the log.
   Nothing is appended (the records are already durable) and the
   checkpoint gate is recovery's business, not ours. *)
let restore bus ~label ~sid ~entries =
  { bus; ctl = Bus.control bus; label; sid; entries = List.rev entries }

let entry_count t = List.length t.entries
let label t = t.label
let sid t = t.sid

let push t e = t.entries <- e :: t.entries

let record t fmt = Bus.note t.bus "rollback" fmt

(* ----------------------------------------------------------- primitives *)

(* Each primitive is one write-ahead step (Control.step): the redo+undo
   record is appended (durably) first, the bus operation applies
   second, and the crash tick runs last — so every logged record's
   operation has taken effect when a controller crash fires, and
   recovery's undo of the logged prefix is exact. [as_logged] is the
   entry as the log stores it, when that differs from the in-memory
   undo entry. *)
let logged_op ?as_logged t entry apply =
  let logged = Option.value as_logged ~default:entry in
  Control.step t.ctl Persist.codec
    (Persist.Entry { sid = t.sid; entry = logged })
    (fun () ->
      apply ();
      push t entry)

let add_route t ~src ~dst =
  logged_op t (Persist.Added_route (src, dst)) (fun () ->
      Bus.add_route t.bus ~src ~dst)

let del_route t ~src ~dst =
  logged_op t (Persist.Deleted_route (src, dst)) (fun () ->
      Bus.del_route t.bus ~src ~dst)

let copy_queue t ~src ~dst =
  logged_op t
    (Persist.Moved_queue { mq_src = src; mq_dst = dst })
    (fun () -> Bus.copy_queue t.bus ~src ~dst)

let drop_queue t ep =
  let values = Bus.peek_queue t.bus ep in
  logged_op t (Persist.Dropped_queue (ep, values)) (fun () ->
      Bus.drop_queue t.bus ep)

let spawn t ~instance ~module_name ~host ?spec ?status () =
  (* the one primitive whose bus operation can fail: apply first, log
     only the success — a failed spawn leaves nothing to undo, and a
     record for an unapplied operation would make replay respawn a
     process that never ran. The crash tick still follows the append. *)
  match Bus.spawn t.bus ~instance ~module_name ~host ?spec ?status () with
  | Error _ as e -> e
  | Ok () ->
    logged_op t (Persist.Spawned instance) ignore;
    Ok ()

let instance_queues bus ~instance ~ifaces =
  List.map (fun iface -> (iface, Bus.peek_queue bus (instance, iface))) ifaces

let kill t ~instance ~module_name ~host ?spec ?image () =
  let ifaces =
    match Bus.instance_spec t.bus ~instance with
    | Some s -> List.map (fun i -> i.Dr_mil.Spec.if_name) s.ifaces
    | None ->
      List.sort_uniq String.compare
        (List.map snd
           (List.filter_map
              (fun ((src, dst) : Bus.endpoint * Bus.endpoint) ->
                if String.equal (fst dst) instance then Some dst
                else if String.equal (fst src) instance then Some src
                else None)
              (Bus.all_routes t.bus)))
  in
  let k_queues = instance_queues t.bus ~instance ~ifaces in
  logged_op t
    (Persist.Killed
       { k_instance = instance;
         k_module = module_name;
         k_host = host;
         k_spec = spec;
         k_image = image;
         k_queues })
    (fun () -> Bus.kill t.bus ~instance)

let arm_divulge t ~instance callback =
  logged_op t (Persist.Armed_divulge instance) (fun () ->
      Bus.on_divulge t.bus ~instance callback)

let note_precopy_base t ~instance ~image =
  (* no bus operation — the pre-copy snapshot goes to the log so a later
     Divulged_delta can be resolved against it on recovery. Nothing to
     undo: a base that never gains a delta is inert. *)
  logged_op t
    (Persist.Precopy_base { pb_instance = instance; pb_image = image })
    ignore

let note_divulged ?delta t ~cap ~image =
  (* no bus operation — the record spills the divulged image (its own
     DRIMG2 checksum inside the log record's CRC) so recovery can
     return the old instance to service. With [?delta] (pre-copy path)
     only the dirtied slots hit the wire as a DRIMGD1 container; the
     in-memory journal still holds the full image, so rollback never
     depends on delta resolution. *)
  logged_op
    ?as_logged:
      (Option.map
         (fun d -> Persist.Divulged_delta { dd_cap = cap; dd_delta = d })
         delta)
    t
    (Persist.Divulged { d_cap = cap; d_image = image })
    ignore

(* Deliberately a complete no-op (no journal entry, no bus call) when
   no transport is installed: on the classic fire-and-forget bus a
   rename has nothing to move, and journalling it anyway would change
   the "rolling back N step(s)" counts of fault-free runs (pinned by
   the golden traces). *)
let rename_transport t ~old_instance ~new_instance ~fence =
  if Bus.has_transport t.bus then
    logged_op t
      (Persist.Renamed_transport
         { rt_old = old_instance; rt_new = new_instance; rt_fence = fence })
      (fun () ->
        Bus.transport_rename t.bus ~old_instance ~new_instance ~fence)

let rebind t batch =
  List.iter
    (fun (command : Primitives.bind_command) ->
      match command with
      | Primitives.Add (src, dst) -> add_route t ~src ~dst
      | Primitives.Del (src, dst) -> del_route t ~src ~dst
      | Primitives.Copy_queue (src, dst) -> copy_queue t ~src ~dst
      | Primitives.Remove_queue ep -> drop_queue t ep)
    (Primitives.batch_commands batch)

(* ----------------------------------------------------------- undo *)

let reinject bus ~instance queues =
  List.iter
    (fun (iface, values) ->
      List.iter (fun v -> Bus.inject bus ~dst:(instance, iface) v) values)
    queues

let restore_instance t ~pfx ~restored ~instance ~module_name ~host ?spec ~image
    ~queues () =
  if Option.is_some (Bus.process_status t.bus ~instance) then begin
    (* already running — a pre-crash undo step restored it before the
       controller died and recovery is re-walking the tail *)
    Hashtbl.replace restored instance ();
    record t "%s%s already back in service" pfx instance
  end
  else
    (* a clone blocks until its image is deposited: only an instance
       that gets one back may start as a clone; a kill that carried no
       image (remove_module, replace_stateless) restarts it fresh *)
    let status = if Option.is_some image then "clone" else "normal" in
    match Bus.spawn t.bus ~instance ~module_name ~host ?spec ~status () with
    | Error e ->
      record t "%sFAILED to restore instance %s on %s: %s" pfx instance host e
    | Ok () ->
      (match image with
      | Some image -> Bus.deposit_state t.bus ~instance image
      | None -> ());
      reinject t.bus ~instance queues;
      Hashtbl.replace restored instance ();
      Bus.emit t.bus (Restored { prefix = pfx; instance })

let undo t ~pfx ~restored = function
  | Persist.Added_route (src, dst) ->
    Bus.del_route t.bus ~src ~dst;
    record t "%sremoved route %s.%s -> %s.%s" pfx (fst src) (snd src) (fst dst)
      (snd dst)
  | Persist.Deleted_route (src, dst) ->
    Bus.add_route t.bus ~src ~dst;
    record t "%srestored route %s.%s -> %s.%s" pfx (fst src) (snd src)
      (fst dst) (snd dst)
  | Persist.Moved_queue { mq_src; mq_dst } ->
    (* a script moves queues only at its final instant, so at rollback
       time the destination still holds exactly the moved messages (no
       engine event has fired in between); hand them back *)
    let values = Bus.take_queue t.bus mq_dst in
    List.iter (fun v -> Bus.inject t.bus ~dst:mq_src v) values;
    record t "%sreturned %d message(s) to %s.%s" pfx (List.length values)
      (fst mq_src) (snd mq_src)
  | Persist.Dropped_queue (ep, values) ->
    List.iter (fun v -> Bus.inject t.bus ~dst:ep v) values;
    record t "%srefilled %s.%s with %d message(s)" pfx (fst ep) (snd ep)
      (List.length values)
  | Persist.Spawned instance ->
    Bus.kill t.bus ~instance;
    record t "%sremoved half-started instance %s" pfx instance
  | Persist.Killed { k_instance; k_module; k_host; k_spec; k_image; k_queues }
    ->
    restore_instance t ~pfx ~restored ~instance:k_instance
      ~module_name:k_module ~host:k_host ?spec:k_spec ~image:k_image
      ~queues:k_queues ()
  | Persist.Armed_divulge instance ->
    Bus.cancel_divulge t.bus ~instance;
    record t "%sdisarmed divulge callback for %s" pfx instance
  | Persist.Renamed_transport { rt_old; rt_new; rt_fence } ->
    Bus.transport_rename t.bus ~old_instance:rt_new ~new_instance:rt_old
      ~fence:rt_fence;
    record t "%sreturned reliable channels of %s to %s" pfx rt_new rt_old
  | Persist.Precopy_base { pb_instance; _ } ->
    (* a snapshot of a still-running instance: nothing was changed *)
    record t "%spre-copy base of %s discarded" pfx pb_instance
  | Persist.Divulged_delta { dd_cap; _ } ->
    (* never in a live journal (note_divulged keeps the full image in
       memory) — only a recovery that failed to resolve the base could
       surface one, and scan rejects that earlier. Nothing sound to
       restore from a bare delta. *)
    record t "%scannot restore %s from an unresolved delta" pfx
      dd_cap.Primitives.cap_instance
  | Persist.Divulged { d_cap; d_image } ->
    (* The target complied: it divulged and is halting — it may even
       still be [Ready], winding down the tail of the quantum that
       divulged, but its continuation is spent either way. Return it to
       service with its own image, unless an earlier undo step (a
       [Persist.Killed] entry) already resurrected it. *)
    let instance = d_cap.Primitives.cap_instance in
    if Hashtbl.mem restored instance then
      record t "%s%s already back in service" pfx instance
    else if Bus.host_is_down t.bus d_cap.Primitives.cap_host then
      (* killing the shell and failing the respawn would lose the
         instance outright; leave it crashed for a supervisor *)
      record t "%scannot restore %s: host %s is down" pfx instance
        d_cap.Primitives.cap_host
    else begin
      let queues =
        instance_queues t.bus ~instance ~ifaces:d_cap.Primitives.cap_ifaces
      in
      if Option.is_some (Bus.process_status t.bus ~instance) then
        Bus.kill t.bus ~instance;
      restore_instance t ~pfx ~restored ~instance
        ~module_name:d_cap.Primitives.cap_module
        ~host:d_cap.Primitives.cap_host ?spec:d_cap.Primitives.cap_spec
        ~image:(Some d_image) ~queues ()
    end

(* drop the [n] newest entries (already undone before a crash) *)
let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

let resume_rollback t ~reason ~already_undone ~abort_logged =
  match t.entries with
  | [] -> ()
  | entries ->
    t.entries <- [];
    let total = List.length entries in
    let remaining = drop already_undone entries in
    if already_undone = 0 then
      record t "%s: rolling back %d step(s): %s" t.label total reason
    else
      record t "%s: resuming rollback at step %d/%d: %s" t.label
        (total - already_undone) total reason;
    if not abort_logged then
      Control.step t.ctl Persist.codec (Persist.Abort { sid = t.sid; reason })
        ignore;
    let restored = Hashtbl.create 4 in
    List.iteri
      (fun j e ->
        let index = total - already_undone - j in
        let pfx = Printf.sprintf "%s [%d/%d]: " t.label index total in
        (* the step is undone before its Undo_done record says so *)
        undo t ~pfx ~restored e;
        Control.step t.ctl Persist.codec
          (Persist.Undo_done { sid = t.sid; index })
          ignore)
      remaining;
    Control.close_script t.ctl Persist.codec (Persist.Abort_done { sid = t.sid })

let rollback t ~reason =
  resume_rollback t ~reason ~already_undone:0 ~abort_logged:false

let commit t =
  t.entries <- [];
  Control.close_script t.ctl Persist.codec (Persist.Commit { sid = t.sid })
