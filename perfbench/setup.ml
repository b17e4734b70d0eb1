(* Set-up: from MIL and module source text to a deployed, ready system.

   [deploy] is what [setup_s] times, always from a cold compile cache so
   every repetition does the same work a first deployment does.
   [replay_layers] re-runs the same inputs through each layer's public
   entry point, one span per call, for the traced run's set-up
   breakdown. *)

open Common
module System = Dynrecon.System
module Cache = Dr_interp.Cache
module Spec = Dr_mil.Spec
module Instrument = Dr_transform.Instrument

type app = {
  a_mil : string;
  a_sources : (string * string) list;
  a_app : string;
  a_hosts : Dr_bus.Bus.host list;
  a_default_host : string;
}

let deploy a =
  let system = ok_exn "load" (System.load ~mil:a.a_mil ~sources:a.a_sources ()) in
  ok_exn "start"
    (System.start system ~app:a.a_app ~hosts:a.a_hosts
       ~default_host:a.a_default_host ())

(* [reps] timed calls of [f], each from a cold compile cache; the
   samples (host seconds) and the last result. *)
let timed_cold ~reps f =
  let last = ref None in
  let samples =
    List.init reps (fun _ ->
        Cache.reset ();
        Gc.full_major ();
        let t0 = now () in
        let v = f () in
        let dt = now () -. t0 in
        last := Some v;
        dt)
  in
  (samples, Option.get !last)

let timed_deploys ~reps a = timed_cold ~reps (fun () -> deploy a)

let point_specs (spec : Spec.module_spec) (program : Dr_lang.Ast.program) =
  List.map
    (fun (pt : Spec.point_decl) ->
      let proc =
        List.find
          (fun (p : Dr_lang.Ast.proc) ->
            List.mem pt.rp_label (Dr_lang.Ast.labels_in_block p.body))
          program.procs
      in
      { Instrument.pt_proc = proc.proc_name;
        pt_label = pt.rp_label;
        pt_vars = pt.rp_state })
    spec.points

let replay_layers tr a =
  let config =
    span tr "mil.parse" (fun () ->
        let config = Dr_mil.Mil_parser.parse_config a.a_mil in
        (match Dr_mil.Validate.validate config with
        | Ok () -> ()
        | Error es -> failwith (String.concat "; " es));
        config)
  in
  let programs =
    List.map
      (fun (spec : Spec.module_spec) ->
        let source = List.assoc spec.ms_name a.a_sources in
        let program =
          span tr "lang.parse" (fun () -> Dr_lang.Parser.parse_program source)
        in
        span tr "lang.typecheck" (fun () ->
            ok_exn "typecheck"
              (Result.map_error
                 (fun _ -> "type errors")
                 (Dr_lang.Typecheck.check program)));
        (spec, program))
      config.Spec.modules
  in
  let deployed =
    List.map
      (fun (spec, program) ->
        if spec.Spec.points = [] then program
        else
          span tr "transform.prepare" (fun () ->
              (ok_exn "prepare"
                 (Instrument.prepare program ~points:(point_specs spec program)))
                .Instrument.prepared_program))
      programs
  in
  let system = ok_exn "load" (System.load ~mil:a.a_mil ~sources:a.a_sources ()) in
  Cache.reset ();
  List.iter
    (fun p -> span tr "interp.compile" (fun () -> ignore (Cache.prepare p)))
    deployed;
  count tr ~by:(Cache.misses ()) "interp.cache_misses";
  ignore
    (span tr "bus.deploy" (fun () ->
         ok_exn "start"
           (System.start system ~app:a.a_app ~hosts:a.a_hosts
              ~default_host:a.a_default_host ())))

(* The set-up layer metrics, per replay (the tracer holds [replays]). *)
let layer_metrics tr ~replays =
  let per name = total tr name /. float_of_int replays in
  [ metric "lang.parse_s" "s" (per "lang.parse") ~samples:replays;
    metric "lang.typecheck_s" "s" (per "lang.typecheck") ~samples:replays;
    metric "mil.parse_s" "s" (per "mil.parse") ~samples:replays;
    metric "transform.prepare_s" "s" (per "transform.prepare") ~samples:replays;
    metric "interp.compile_s" "s" (per "interp.compile") ~samples:replays;
    metric "interp.cache_misses" "count"
      (float_of_int (calls tr "interp.cache_misses") /. float_of_int replays)
      ~samples:replays;
    metric "bus.deploy_s" "s" (per "bus.deploy") ~samples:replays ]
