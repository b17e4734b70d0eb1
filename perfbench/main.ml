(* Benchmark entry point: one seeded workload, measured for a host-time
   budget, its outputs checked, its metrics printed.

     main.exe --workload <kv-rolling|migrate-deep|mc-explore> --seed <n>
              --seconds <s> --trace <0|1> [--commit C]

   Untraced (--trace 0), the run measures the end-to-end metrics with no
   wrapper, span or extra registry attached. Traced (--trace 1), it
   wraps the layers from outside, reports the per-layer metrics and its
   own end-to-end figures, and writes its spans to perfbench/out; run.py
   subtracts the figures of a separate untraced process from the latter
   to give the tracing overhead. Every line before the last is for
   people; the last is the JSON result. Exits 1 when an output check
   fails. *)

open Common

let workloads =
  [ ("kv-rolling", Kv_rolling.run);
    ("migrate-deep", Migrate_deep.run);
    ("mc-explore", Mc_explore.run) ]

(* Every per-layer metric but the overhead.* ones, in BENCHMARK.json
   order. Each traced run reports all of them; a layer metric of another
   workload reads 0. *)
let per_layer_units =
  [ ("op_ms_p95", "ms"); ("lang.parse_s", "s"); ("lang.typecheck_s", "s");
    ("mil.parse_s", "s"); ("transform.prepare_s", "s"); ("interp.compile_s", "s");
    ("interp.cache_misses", "count"); ("bus.deploy_s", "s");
    ("kv.steady_req_per_s", "1/s"); ("kv.vt_lat_p50", "vt");
    ("kv.vt_lat_p99", "vt"); ("sim.events_per_req", "1/req");
    ("sim.queue_len_max", "count"); ("bus.routed_per_req", "1/req");
    ("bus.delivered_per_req", "1/req"); ("bus.drain_redirects", "1/wave");
    ("interp.instrs_per_req", "1/req"); ("bus.run_s", "s/round");
    ("gc.minor_words_per_req", "words/req");
    ("gc.major_collections", "1/round"); ("reconfig.wave_s", "s");
    ("reconfig.canary_rollbacks", "1/wave"); ("wal.appends", "1/op");
    ("wal.bytes", "B/op"); ("wal.syncs", "1/op"); ("wal.storage_s", "s/op");
    ("migrate.vt_window_p50", "vt"); ("interp.capture_ms", "ms");
    ("interp.restore_ms", "ms"); ("state.encode_ms", "ms");
    ("state.translate_ms", "ms"); ("state.decode_ms", "ms");
    ("state.image_bytes", "B"); ("reconfig.persist_encode_ms", "ms");
    ("reconfig.residual_ms", "ms"); ("gc.minor_words_per_op", "words/op");
    ("sim.trace_entries", "1/op"); ("mc.verdict_s", "s");
    ("mc.executions", "count"); ("mc.transitions", "count");
    ("mc.states", "count"); ("mc.setup_s", "s"); ("mc.monitor_s", "s");
    ("mc.monitor_calls", "count"); ("mc.residual_s", "s");
    ("mc.transitions_per_s", "1/s"); ("host.kernel_ms", "ms") ]

let spans_dir = "perfbench/out"

let usage () =
  prerr_endline
    "usage: main.exe --workload <kv-rolling|migrate-deep|mc-explore> --seed \
     <n> --seconds <s> --trace <0|1> [--commit C]";
  exit 2

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
           (json_number m.m_value) m.m_unit)
       ms)

let host_line () =
  Printf.printf
    "host: reference kernel median %.4f ms over %d samples; host times \
     below are scaled by 1/%.4f\n"
    (median !kernel_samples *. 1000.0)
    (List.length !kernel_samples)
    (slowdown ())

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-28s %16.6f %-10s (n=%d)\n" m.m_name m.m_value m.m_unit
        m.m_samples)
    ms

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 in
  let trace = ref (-1) and commit = ref "unknown" in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--commit" :: v :: rest -> commit := v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seed >= 0 && !seconds > 0.0 && (!trace = 0 || !trace = 1)
      ->
      run
    | _ -> usage ()
  in
  Printf.printf
    "env: ocaml=%s nproc=%d commit=%s workload=%s seed=%d seconds=%g trace=%d\n%!"
    Sys.ocaml_version
    (Domain.recommended_domain_count ())
    !commit !workload !seed !seconds !trace;
  let result, metrics =
    if !trace = 0 then begin
      let r = run ~seed:!seed ~seconds:!seconds ~tr:None in
      host_line ();
      print_metrics "end-to-end (scaled host times):" r.r_e2e;
      print_metrics (!workload ^ " (raw host times):") r.r_detail;
      (r, r.r_e2e)
    end
    else begin
      let tr = tracer () in
      let r = run ~seed:!seed ~seconds:!seconds ~tr:(Some tr) in
      host_line ();
      let kernel =
        metric "host.kernel_ms" "ms"
          (median !kernel_samples *. 1000.0)
          ~samples:(List.length !kernel_samples)
      in
      let reported = kernel :: r.r_layers in
      let layers =
        List.map
          (fun (name, unit) ->
            match List.find_opt (fun m -> m.m_name = name) reported with
            | Some m -> m
            | None -> metric name unit 0.0 ~samples:0)
          per_layer_units
      in
      print_metrics "end-to-end, traced (scaled host times):" r.r_e2e;
      print_metrics (!workload ^ ", traced (raw host times):") r.r_detail;
      print_metrics "per-layer, raw host times (0 with n=0: not exercised here):"
        layers;
      (try Sys.mkdir spans_dir 0o755 with Sys_error _ -> ());
      let path =
        Filename.concat spans_dir
          (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)
      in
      write_spans tr path;
      Printf.printf "spans: %s\n" path;
      (r, layers @ r.r_e2e)
    end
  in
  List.iter
    (fun (name, ok) -> Printf.printf "check %-44s %s\n" name (if ok then "ok" else "FAILED"))
    result.r_checks;
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) metrics in
  Printf.printf "check %-44s %s\n" "every metric is a finite number"
    (if finite then "ok" else "FAILED");
  let correct = finite && List.for_all snd result.r_checks in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct result.r_attempted result.r_failed (json_metrics metrics);
  if not correct then exit 1
