module Bus = Dr_bus.Bus
module Codec = Dr_state.Codec

let freeze bus ~instance ?max_events () =
  match Bus.instance_module bus ~instance with
  | None -> Error (Printf.sprintf "no such instance %s" instance)
  | Some _ ->
    let frozen = ref Bytes.empty in
    (* watched: a crashed, halted or removed instance can never reach a
       reconfiguration point, so the run fails fast instead of spinning
       the event budget on unrelated processes *)
    Script.run_sync bus ?max_events ~watch:instance (fun ~on_done ->
        Bus.on_divulge bus ~instance (fun image ->
            frozen := Codec.encode_abstract image;
            on_done (Ok instance));
        Bus.signal_reconfig bus ~instance)
    |> Result.map (fun _ ->
           Bus.kill bus ~instance;
           !frozen)

let thaw bus ~instance ~module_name ~host ?spec frozen =
  match Codec.decode_abstract frozen with
  | Error e -> Error (Printf.sprintf "frozen state is corrupt: %s" e)
  | Ok image -> (
    match Bus.spawn bus ~instance ~module_name ~host ?spec ~status:"clone" () with
    | Error _ as e -> e
    | Ok () ->
      Bus.deposit_state bus ~instance image;
      Ok ())

let save ~path frozen =
  try
    let oc = open_out_bin path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_bytes oc frozen);
    Ok ()
  with Sys_error e -> Error e

let load ~path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Ok (Bytes.of_string (really_input_string ic (in_channel_length ic))))
  with Sys_error e -> Error e
