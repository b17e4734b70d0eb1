(** Reconfiguration primitives (the mh_ script operations of Fig. 5 and
    of [Purtilo & Hofmeister 1991]).

    These are the building blocks scripts are written with: capture the
    current specification of a module ([obj_cap]), prepare and atomically
    apply batches of binding edits ([bind_cap]/[edit_bind]/[rebind]),
    and push a divulged image through the hosts' wire formats
    ([translate_image]). The paper's [objstate_move] and [chg_obj] are
    the journalled {!Journal.arm_divulge}, {!Journal.spawn} and
    {!Journal.kill}, so that a failed script can undo them. *)

type module_cap = {
  cap_instance : string;
  cap_module : string;
  cap_host : string;
  cap_spec : Dr_mil.Spec.module_spec option;
  cap_ifaces : string list;
      (** interface names, from the spec when present, otherwise from the
          live routing table *)
  cap_out_routes : (Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) list;
  cap_in_routes : (Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint) list;
}

val obj_cap : Dr_bus.Bus.t -> instance:string -> (module_cap, string) result
(** Snapshot of the {e current} configuration of a module — which may
    have changed dynamically since the original specification. *)

type bind_command =
  | Add of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Del of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Copy_queue of Dr_bus.Bus.endpoint * Dr_bus.Bus.endpoint
  | Remove_queue of Dr_bus.Bus.endpoint

type bind_batch

val bind_cap : unit -> bind_batch

val edit_bind : bind_batch -> bind_command -> unit

val batch_commands : bind_batch -> bind_command list

val rebind : Dr_bus.Bus.t -> bind_batch -> unit
(** Apply every command in the batch, in order, at one instant of
    virtual time ("the rebinding commands are applied all at once"). *)

val translate_image :
  Dr_bus.Bus.t ->
  ?for_instance:string ->
  src_host:string ->
  dst_host:string ->
  Dr_state.Image.t ->
  (Dr_state.Image.t, string) result
(** Push an image through the native wire formats of the two hosts
    (src-native → abstract → dst-native), as a real heterogeneous
    migration would. Fails when a value cannot be represented on the
    destination architecture. With [?for_instance]: an armed
    {!Dr_bus.Control.arm_image_corruption} fault corrupts the native bytes
    in flight (the codec's checksum catches it), and any translation
    failure quarantines the image against that instance. *)
