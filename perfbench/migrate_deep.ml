(* migrate-deep: deep cross-architecture migration.

   One Synthetic.deeprec_payload instance (depth 128 x payload 64, a
   ~80 kB abstract image) migrated back and forth between hostA
   (x86_64) and hostB (sparc32) through Script.migrate, with the control
   log on memory storage. An operation runs from the script call until
   the clone's Machine.restore_done_at is set, where the paper's
   disruption window ends. Capture/restore in the interpreter, the
   cross-arch codec, journalling and the WAL do most of the work; bus
   and sim carry one sleeping instance.

   Consecutive migrations are at least 10 units of virtual time apart:
   a migrate signalled while the previous clone is still restoring loses
   the signal (see NOTES.md), and this workload measures the window,
   not that defect. *)

open Common
module Bus = Dr_bus.Bus
module Engine = Dr_sim.Engine
module Script = Dr_reconfig.Script
module Persist = Dr_reconfig.Persist
module Machine = Dr_interp.Machine
module Codec = Dr_state.Codec
module Arch = Dr_state.Arch

let depth = 128
let payload = 64
let migrations_per_round = 16

let program = Dr_workloads.Synthetic.deeprec_payload ~depth ~payload

let mil =
  {|
module deeppay {
  source = "./deeppay.exe";
  define interface out pattern {integer};
  reconfiguration point R;
}

application deep {
  instance w = deeppay on "hostA";
}
|}

let hosts =
  [ { Bus.host_name = "hostA"; arch = Arch.x86_64 };
    { Bus.host_name = "hostB"; arch = Arch.sparc32 } ]

let app =
  { Setup.a_mil = mil;
    a_sources = [ ("deeppay", Dr_lang.Pretty.program_to_string program) ];
    a_app = "deep";
    a_hosts = hosts;
    a_default_host = "hostA" }

type acc = {
  mutable setup : float list;
  mutable op_ms : float list;
  mutable rates : float list;  (* migrations / host s, per round *)
  mutable windows : float list;  (* virtual signal -> restore *)
  mutable attempted : int;
  mutable failed : int;
  mutable bad_depth : int;
  mutable rounds : int;
  (* traced run only *)
  mutable minor_words : float;
  mutable trace_entries : int;
  mutable image_bytes : int;
}

(* Standalone machine io: virtual time frozen at 0, images captured
   into / served from [image]. *)
let machine_io image =
  { (Dr_interp.Io_intf.null ()) with
    io_encode = (fun i -> image := Some i);
    io_decode = (fun () -> !image) }

(* Replay the layer calls of one migration on the same program and a
   freshly captured image, one span each. *)
let replay_layers tr acc deployed =
  let resolved = (Dr_interp.Cache.prepare deployed).Dr_interp.Cache.a_resolved in
  let image = ref None in
  let m = Machine.create ~io:(machine_io image) ~resolved deployed in
  Machine.run m;
  Machine.deliver_signal m;
  Machine.set_ready m;
  span tr "interp.capture" (fun () -> Machine.run m);
  let image = Option.get !image in
  acc.image_bytes <- Bytes.length (Codec.encode_abstract image);
  let native = span tr "state.encode" (fun () -> Codec.Native.encode Arch.x86_64 image) in
  let native = ok_exn "encode" native in
  let translated =
    span tr "state.translate" (fun () ->
        Codec.Native.recode ~src:Arch.x86_64 ~dst:Arch.sparc32 native)
  in
  let translated = ok_exn "translate" translated in
  let decoded =
    ok_exn "decode"
      (span tr "state.decode" (fun () -> Codec.Native.decode Arch.sparc32 translated))
  in
  let cap =
    { Dr_reconfig.Primitives.cap_instance = "w";
      cap_module = "deeppay";
      cap_host = "hostA";
      cap_spec = None;
      cap_ifaces = [];
      cap_out_routes = [];
      cap_in_routes = [] }
  in
  span tr "reconfig.persist_encode" (fun () ->
      ignore
        (Persist.encode
           (Persist.Entry { sid = 1; entry = Persist.Divulged { d_cap = cap; d_image = image } })
          : bytes);
      ignore
        (Persist.encode
           (Persist.Entry
              { sid = 1;
                entry =
                  Persist.Killed
                    { k_instance = "w";
                      k_module = "deeppay";
                      k_host = "hostA";
                      k_spec = None;
                      k_image = Some image;
                      k_queues = [] } })
          : bytes));
  let clone =
    Machine.create ~status_attr:"clone" ~io:(machine_io (ref (Some decoded)))
      ~resolved deployed
  in
  span tr "interp.restore" (fun () -> Machine.run clone);
  if Machine.restore_done_at clone = None then failwith "replayed restore did not finish"

let round acc ~rng ~tr =
  let reps = if acc.rounds = 0 then 5 else 1 in
  let samples, bus = Setup.timed_deploys ~reps app in
  acc.setup <- acc.setup @ samples;
  acc.rounds <- acc.rounds + 1;
  Option.iter (fun tr -> Setup.replay_layers tr app) tr;
  memory_wal tr bus;
  let deployed =
    match Bus.machine bus ~instance:"w" with
    | Some m -> Machine.program m
    | None -> failwith "no instance w"
  in
  let engine = Bus.engine bus in
  (* dive to the bottom loop (~87 units of virtual time at depth 128) *)
  let at_bottom () =
    match Bus.machine bus ~instance:"w" with
    | Some m -> Machine.stack_depth m >= depth + 2
    | None -> false
  in
  while not (at_bottom ()) do
    Bus.run ~until:(Bus.now bus +. 1.0) bus
  done;
  let current = ref "w" in
  let busy = ref 0.0 in
  for k = 1 to migrations_per_round do
    (* 10 to 15 units of virtual time after the previous restore *)
    let gap = 10.0 +. Random.State.float rng 5.0 in
    ignore (sample_speed () : float);
    Bus.run ~until:(Bus.now bus +. gap) bus;
    let next = Printf.sprintf "w%d" k in
    let dst = if k mod 2 = 1 then "hostB" else "hostA" in
    Option.iter new_op tr;
    let gc0 = if tr <> None then Some (Gc.quick_stat ()) else None in
    let entries0 = Dr_sim.Trace.length (Bus.trace bus) in
    let vt0 = Bus.now bus in
    let t0 = now () in
    let outcome =
      Script.run_sync bus ~deadline:30.0 ~watch:!current (fun ~on_done ->
          Script.migrate bus ~instance:!current ~new_instance:next ~new_host:dst
            ~on_done ())
    in
    let restored () =
      match Bus.machine bus ~instance:next with
      | Some m -> Machine.restore_done_at m
      | None -> None
    in
    let vt_limit = Bus.now bus +. 30.0 in
    while
      Result.is_ok outcome && restored () = None && Bus.now bus < vt_limit
      && Engine.step engine
    do
      ()
    done;
    let dt = now () -. t0 in
    acc.attempted <- acc.attempted + 1;
    (match (outcome, restored ()) with
    | Ok _, Some vt1 ->
      acc.op_ms <- (dt *. 1000.0) :: acc.op_ms;
      acc.windows <- (vt1 -. vt0) :: acc.windows;
      busy := !busy +. dt;
      (match Bus.machine bus ~instance:next with
      | Some m when Machine.stack_depth m = depth + 2 -> ()
      | _ -> acc.bad_depth <- acc.bad_depth + 1);
      current := next
    | o, _ ->
      if acc.failed = 0 then
        Printf.eprintf "first failed migration (%d): %s\n%!" k
          (match o with Error e -> e | Ok _ -> "clone never restored");
      acc.failed <- acc.failed + 1);
    Option.iter
      (fun g0 ->
        let g1 = Gc.quick_stat () in
        acc.minor_words <- acc.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
        acc.trace_entries <-
          acc.trace_entries + (Dr_sim.Trace.length (Bus.trace bus) - entries0))
      gc0;
    Option.iter (fun tr -> replay_layers tr acc deployed) tr
  done;
  acc.rates <- (float_of_int migrations_per_round /. !busy) :: acc.rates

let run ~seed ~seconds ~tr =
  let rng = Random.State.make [| seed |] in
  let acc =
    { setup = []; op_ms = []; rates = []; windows = []; attempted = 0;
      failed = 0; bad_depth = 0; rounds = 0; minor_words = 0.0;
      trace_entries = 0; image_bytes = 0 }
  in
  let heap = for_seconds seconds (fun () -> round acc ~rng ~tr) in
  let n_ops = List.length acc.op_ms in
  let p50 = quantile 0.5 acc.op_ms in
  let p95 = quantile 0.95 acc.op_ms in
  let window = median acc.windows in
  let e2e = end_to_end ~setup:acc.setup ~heap ~rates:acc.rates ~op_ms:acc.op_ms in
  let detail =
    [ metric "setup_s" "s" (median acc.setup) ~samples:(List.length acc.setup);
      metric "migrations_per_s" "1/s" (median acc.rates)
        ~samples:(List.length acc.rates);
      metric "migrate_ms_p50" "ms" p50 ~samples:n_ops;
      metric "migrate_ms_p95" "ms" p95 ~samples:n_ops;
      metric "vt_window_p50" "vt" window ~samples:n_ops;
      metric "fail_share" "1"
        (float_of_int acc.failed /. float_of_int (max 1 acc.attempted))
        ~samples:acc.attempted ]
  in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
      let per_op name = total tr name *. 1000.0 /. float_of_int (max 1 n_ops) in
      let ops = float_of_int (max 1 n_ops) in
      let wal_ms = total tr "wal.storage" *. 1000.0 /. ops in
      let parts =
        [ ("interp.capture_ms", per_op "interp.capture");
          ("interp.restore_ms", per_op "interp.restore");
          ("state.encode_ms", per_op "state.encode");
          ("state.translate_ms", per_op "state.translate");
          ("state.decode_ms", per_op "state.decode");
          ("reconfig.persist_encode_ms", per_op "reconfig.persist_encode") ]
      in
      let mean_op = sum acc.op_ms /. ops in
      Setup.layer_metrics tr ~replays:acc.rounds
      @ List.map (fun (name, v) -> metric name "ms" v ~samples:n_ops) parts
      @ [ op_ms_p95 acc.op_ms;
          metric "migrate.vt_window_p50" "vt" window ~samples:n_ops;
          metric "state.image_bytes" "B" (float_of_int acc.image_bytes);
          metric "wal.storage_s" "s/op" (wal_ms /. 1000.0) ~samples:n_ops;
          metric "wal.bytes" "B/op" (float_of_int (calls tr "wal.bytes") /. ops);
          metric "wal.appends" "1/op" (float_of_int (calls tr "wal.appends") /. ops);
          metric "wal.syncs" "1/op" (float_of_int (calls tr "wal.syncs") /. ops);
          metric "reconfig.residual_ms" "ms"
            (mean_op -. sum (List.map snd parts) -. wal_ms)
            ~samples:n_ops;
          metric "gc.minor_words_per_op" "words/op" (acc.minor_words /. ops);
          metric "sim.trace_entries" "1/op" (float_of_int acc.trace_entries /. ops) ]
  in
  { r_checks =
      [ ("every migration completed and restored", acc.failed = 0);
        ( "migrations as scheduled",
          acc.attempted = acc.rounds * migrations_per_round
          && n_ops = acc.attempted );
        ( Printf.sprintf "every clone restored with stack_depth %d" (depth + 2),
          acc.bad_depth = 0 ) ];
    r_attempted = acc.attempted;
    r_failed = acc.failed + acc.bad_depth;
    r_e2e = e2e;
    r_detail = detail;
    r_layers = layers }
