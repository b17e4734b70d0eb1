(* mc-explore: model-checker time to verdict.

   An exhaustive DPOR exploration of Configs.by_name "double-replace"
   (two cells behind one pinger, two concurrent replacement scripts).
   The checker's loop does all the work: per-execution boot, engine
   replay, fingerprinting, monitors. The exploration is exhaustive, so
   its input does not depend on the seed and its counts are exact. One
   round is one exploration; an operation is one explored execution,
   stamped through the explorer's [on_exec] callback. *)

open Common
module Explorer = Dr_mc.Explorer
module Monitor = Dr_mc.Monitor

let config = "double-replace"
let expect_executions = 5525
let expect_transitions = 119_515
let expect_states = 6482
let block = 25

(* The inputs double-replace boots from, for the traced set-up replay. *)
let app =
  let module W = Dr_mc.Workload in
  { Setup.a_mil = W.pair_mil;
    a_sources =
      [ ("cell", W.cell_source ~k:1 ~module_name:"cell");
        ("cellv2", W.cell_source ~k:1 ~module_name:"cellv2");
        ("pinger2", W.pinger2_source ~k:1) ];
    a_app = "mc";
    a_hosts = W.hosts;
    a_default_host = "mh1" }

let base () =
  match Dr_mc.Configs.by_name config with
  | Some cfg -> cfg
  | None -> failwith ("no model-checker configuration " ^ config)

(* The configuration with its per-execution boot and its monitors
   timed from outside. *)
let wrapped tr (cfg : Explorer.config) =
  let timed name f =
    let t0 = now () in
    let v = f () in
    add tr name (now () -. t0);
    v
  in
  let wrap (m : Monitor.t) =
    { m with
      Monitor.m_step = (fun () -> timed "mc.monitor" m.m_step);
      m_final = (fun info -> timed "mc.monitor" (fun () -> m.m_final info)) }
  in
  { cfg with
    Explorer.c_setup =
      (fun () ->
        let run = span tr "mc.setup" cfg.c_setup in
        { run with Explorer.r_monitors = List.map wrap run.Explorer.r_monitors })
  }

type acc = {
  mutable setup : float list;
  mutable verdicts : float list;  (* host s per exploration *)
  mutable exec_ms : float list;
  mutable rates : float list;  (* transitions / host s *)
  mutable rounds : int;
  mutable violations : int;
  mutable capped : int;
  mutable wrong_counts : int;
  mutable counts : int * int * int;  (* executions, transitions, states *)
}

let round acc ~tr =
  let cfg = base () in
  (* boot from cold: MIL and source text to a deployed, ready system *)
  let reps = if acc.rounds = 0 then 5 else 1 in
  let samples, _ = Setup.timed_cold ~reps cfg.Explorer.c_setup in
  acc.setup <- acc.setup @ samples;
  acc.rounds <- acc.rounds + 1;
  Option.iter (fun tr -> Setup.replay_layers tr app) tr;
  let cfg = match tr with Some tr -> wrapped tr cfg | None -> cfg in
  (* One sample per block of [block] consecutive executions: the mean
     host ms per execution. Single executions (~0.5 ms) are too short
     to time steadily against GC slices; the blocks are the same on
     every exploration, which runs in a fixed order. Speed samples are
     taken between blocks and left out of both the block times and the
     verdict time. *)
  let last = ref (now ()) and sampling = ref 0.0 and in_block = ref 0 in
  let on_exec _ =
    incr in_block;
    if !in_block = block then begin
      let t = now () in
      acc.exec_ms <-
        ((t -. !last) *. 1000.0 /. float_of_int block) :: acc.exec_ms;
      in_block := 0;
      sampling := !sampling +. sample_speed ();
      last := now ()
    end;
    Option.iter new_op tr
  in
  let t0 = now () in
  last := t0;
  let r =
    traced tr "mc.explore" (fun () ->
        Explorer.explore ~mode:Explorer.Dpor ~on_exec cfg)
  in
  let dt = now () -. t0 -. !sampling in
  let s = r.Explorer.res_stats in
  acc.verdicts <- dt :: acc.verdicts;
  acc.rates <- (float_of_int s.Explorer.transitions /. dt) :: acc.rates;
  acc.violations <- acc.violations + List.length r.Explorer.res_violations;
  if s.Explorer.capped then acc.capped <- acc.capped + 1;
  acc.counts <- (s.Explorer.executions, s.Explorer.transitions, s.Explorer.states);
  if
    s.Explorer.executions <> expect_executions
    || s.Explorer.transitions <> expect_transitions
    || s.Explorer.states <> expect_states
  then begin
    Printf.eprintf "explored %d executions, %d transitions, %d states\n%!"
      s.Explorer.executions s.Explorer.transitions s.Explorer.states;
    acc.wrong_counts <- acc.wrong_counts + 1
  end

let run ~seed:_ ~seconds ~tr =
  let acc =
    { setup = []; verdicts = []; exec_ms = []; rates = []; rounds = 0;
      violations = 0; capped = 0; wrong_counts = 0; counts = (0, 0, 0) }
  in
  let heap = for_seconds seconds (fun () -> round acc ~tr) in
  let n_exec = List.length acc.exec_ms in
  let n = List.length acc.verdicts in
  let verdict = median acc.verdicts in
  let rate = median acc.rates in
  let p50 = quantile 0.5 acc.exec_ms in
  let p95 = quantile 0.95 acc.exec_ms in
  let e2e = end_to_end ~setup:acc.setup ~heap ~rates:acc.rates ~op_ms:acc.exec_ms in
  let detail =
    [ metric "setup_s" "s" (median acc.setup) ~samples:(List.length acc.setup);
      metric "verdict_s" "s" verdict ~samples:n;
      metric "transitions_per_s" "1/s" rate ~samples:n;
      metric "exec_ms_p50" "ms" p50 ~samples:n_exec;
      metric "exec_ms_p95" "ms" p95 ~samples:n_exec ]
  in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
      let per_round x = x /. float_of_int (max 1 n) in
      let setup_s = per_round (total tr "mc.setup") in
      let monitor_s = per_round (total tr "mc.monitor") in
      let executions, transitions, states = acc.counts in
      Setup.layer_metrics tr ~replays:acc.rounds
      @ [ op_ms_p95 acc.exec_ms;
          metric "mc.verdict_s" "s" verdict ~samples:n;
        metric "mc.executions" "count" (float_of_int executions);
        metric "mc.transitions" "count" (float_of_int transitions);
        metric "mc.states" "count" (float_of_int states);
        metric "mc.setup_s" "s" setup_s ~samples:(calls tr "mc.setup");
        metric "mc.monitor_s" "s" monitor_s ~samples:(calls tr "mc.monitor");
        metric "mc.monitor_calls" "count"
          (per_round (float_of_int (calls tr "mc.monitor")));
        metric "mc.residual_s" "s"
          (per_round (sum acc.verdicts) -. setup_s -. monitor_s)
          ~samples:n;
        metric "mc.transitions_per_s" "1/s" rate ~samples:n ]
  in
  { r_checks =
      [ ("zero monitor violations", acc.violations = 0);
        ("exploration not capped", acc.capped = 0);
        ( Printf.sprintf "exactly %d executions, %d transitions, %d states"
            expect_executions expect_transitions expect_states,
          acc.wrong_counts = 0 ) ];
    r_attempted = n;
    r_failed = acc.violations + acc.capped + acc.wrong_counts;
    r_e2e = e2e;
    r_detail = detail;
    r_layers = layers }
