(* kv-rolling: served traffic across rolling waves.

   A 64-replica Kvstore.Replica group with its control log on memory
   storage, driven open-loop by Loadgen at 150 requests per unit of
   virtual time (90% gets; Loadgen's default key space, 80% of traffic
   on 8 hot keys of 100). Each round deploys a fresh group, serves a
   steady phase, then runs rolling waves back to back under the same
   load, alternating rstore -> rstorev2 -> rstore, with a short drain
   and canary window.
   Rounds repeat until the time budget is spent, so the heap peak is
   that of one round, not of the run length.

   The rate sits below the fleet's virtual capacity, so the backlog
   stays flat and every request is answered. The serving path (sim,
   bus, interp, obs) does most of the work; reconfig, state and wal do
   a little (a 512-slot table per image, same-arch recodes). *)

open Common
module Bus = Dr_bus.Bus
module Engine = Dr_sim.Engine
module Metrics = Dr_obs.Metrics
module Roll = Dr_reconfig.Rolling
module Kv = Dr_workloads.Kvstore

let replicas = 64
let rate = 150.0
let warmup_vt = 5.0
let chunk_vt = 10.0
let steady_chunks = 12
let waves_per_round = 4

let app =
  let hosts = Kv.Replica.hosts ~n:replicas in
  { Setup.a_mil = Kv.Replica.mil ~n:replicas;
    a_sources = Kv.Replica.sources;
    a_app = "rgroup";
    a_hosts = hosts;
    a_default_host = (List.hd hosts).Bus.host_name }

let wave_config target =
  { (Roll.default_config ~target) with
    rc_drain_timeout = 2.0;
    rc_canary_window = 2.0;
    rc_canary_min_samples = 3;
    rc_backoff = 1.0 }

let counter_total m name =
  List.fold_left
    (fun acc (n, _, v) -> if String.equal n name then acc + v else acc)
    0 (Metrics.counters m)

type acc = {
  mutable setup : float list;
  mutable steady_rates : float list;  (* answered req / host s, per chunk *)
  mutable wave_rates : float list;  (* answered req / host s, per wave *)
  mutable slot_ms : float list;
  mutable lat_buckets : (int * int) list;  (* merged latency histogram *)
  mutable attempted : int;
  mutable waves : int;
  mutable uncommitted : int;
  mutable rollbacks : int;
  mutable ledger_ok : bool;
  mutable wrong : int;
  mutable duplicated : int;
  mutable shed : int;
  mutable unanswered : int;
  mutable answered : int;
  mutable rounds : int;
  (* traced run only *)
  mutable events : int;
  mutable routed : int;
  mutable delivered : int;
  mutable redirects : int;
  mutable instrs : int;
  mutable queue_max : int;
  mutable minor_words : float;
  mutable major : int;
}

let merge_buckets a b =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (e, c) ->
      Hashtbl.replace tbl e (c + Option.value ~default:0 (Hashtbl.find_opt tbl e)))
    (a @ b);
  List.sort compare (Hashtbl.fold (fun e c l -> (e, c) :: l) tbl [])

let round acc ~rng ~tr =
  Option.iter (fun tr -> Setup.replay_layers tr app) tr;
  let reps = if acc.rounds = 0 then 5 else 1 in
  let samples, bus = Setup.timed_deploys ~reps app in
  acc.setup <- acc.setup @ samples;
  acc.rounds <- acc.rounds + 1;
  Option.iter new_op tr;
  memory_wal tr bus;
  let group = Kv.Replica.group ~n:replicas in
  let roster = Hashtbl.create replicas in
  List.iter (fun (slot, inst) -> Hashtbl.replace roster slot inst) group;
  let lg =
    Kv.Loadgen.start bus
      { Kv.Loadgen.default_conf with
        lc_rate = rate;
        lc_read_ratio = 0.9;
        lc_seed = Random.State.bits rng;
        lc_duration = infinity }
      ~slots:group
  in
  let engine = Bus.engine bus in
  let events0 = Engine.events_fired engine in
  let gc0 = Gc.quick_stat () in
  let answered () = (Kv.Loadgen.stats lg).st_answered in
  let run_until vt =
    traced tr "bus.run" (fun () -> Bus.run ~until:vt bus);
    if tr <> None then acc.queue_max <- max acc.queue_max (Engine.pending engine)
  in
  run_until warmup_vt;
  (* steady phase *)
  for _ = 1 to steady_chunks do
    ignore (sample_speed () : float);
    let a0 = answered () in
    let t0 = now () in
    run_until (Bus.now bus +. chunk_vt);
    let a1 = answered () in
    let dt = now () -. t0 in
    acc.steady_rates <- (float_of_int (a1 - a0) /. dt) :: acc.steady_rates
  done;
  (* rolling waves, back to back *)
  for w = 1 to waves_per_round do
    let target = if w mod 2 = 1 then "rstorev2" else "rstore" in
    let group = List.map (fun (slot, _) -> (slot, Hashtbl.find roster slot)) group in
    let last = ref (now ()) in
    let on_retarget ~slot ~instance =
      let t = now () in
      acc.slot_ms <- ((t -. !last) *. 1000.0) :: acc.slot_ms;
      last := t;
      Hashtbl.replace roster slot instance;
      Kv.Loadgen.retarget lg ~slot ~instance
    in
    ignore (sample_speed () : float);
    let a0 = answered () in
    let t0 = now () in
    let report =
      traced tr "reconfig.wave" (fun () ->
          Roll.run bus (wave_config target) ~group ~on_retarget ())
    in
    let a1 = answered () in
    let dt = now () -. t0 in
    acc.wave_rates <- (float_of_int (a1 - a0) /. dt) :: acc.wave_rates;
    acc.waves <- acc.waves + 1;
    match report with
    | Ok r ->
      if not r.Roll.rp_committed then acc.uncommitted <- acc.uncommitted + 1;
      acc.rollbacks <-
        List.fold_left
          (fun n rr -> n + rr.Roll.rr_rollbacks)
          acc.rollbacks r.Roll.rp_replicas
    | Error _ -> acc.uncommitted <- acc.uncommitted + 1
  done;
  (* let every reply in, bounded *)
  Kv.Loadgen.stop lg;
  let deadline = Bus.now bus +. 200.0 in
  while (Kv.Loadgen.stats lg).st_inflight > 0 && Bus.now bus < deadline do
    Bus.run ~until:(Bus.now bus +. 5.0) bus
  done;
  let s = Kv.Loadgen.stats lg in
  let m = Option.get (Bus.metrics bus) in
  if tr <> None then begin
    let gc1 = Gc.quick_stat () in
    acc.events <- acc.events + (Engine.events_fired engine - events0);
    acc.routed <- acc.routed + counter_total m "bus.messages_routed";
    acc.delivered <- acc.delivered + counter_total m "bus.delivered";
    acc.redirects <- acc.redirects + counter_total m "bus.drain_redirect";
    acc.instrs <- acc.instrs + counter_total m "interp.instructions";
    acc.minor_words <- acc.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
    acc.major <- acc.major + (gc1.Gc.major_collections - gc0.Gc.major_collections)
  end;
  acc.lat_buckets <-
    List.fold_left
      (fun b (slot, _) ->
        merge_buckets b
          (Metrics.histogram_buckets m ~labels:[ ("slot", slot) ]
             Roll.latency_metric))
      acc.lat_buckets group;
  acc.ledger_ok <-
    acc.ledger_ok && s.st_sent = s.st_answered + s.st_shed + s.st_inflight;
  acc.wrong <- acc.wrong + s.st_wrong;
  acc.duplicated <- acc.duplicated + s.st_duplicated + s.st_stray;
  acc.shed <- acc.shed + s.st_shed;
  acc.unanswered <- acc.unanswered + s.st_inflight;
  acc.answered <- acc.answered + s.st_answered;
  acc.attempted <- acc.attempted + s.st_sent + waves_per_round

let run ~seed ~seconds ~tr =
  let rng = Random.State.make [| seed |] in
  let acc =
    { setup = []; steady_rates = []; wave_rates = []; slot_ms = [];
      lat_buckets = []; attempted = 0; waves = 0;
      uncommitted = 0; rollbacks = 0; ledger_ok = true; wrong = 0;
      duplicated = 0; shed = 0; unanswered = 0; answered = 0; rounds = 0;
      events = 0; routed = 0; delivered = 0; redirects = 0; instrs = 0;
      queue_max = 0; minor_words = 0.0; major = 0 }
  in
  let heap = for_seconds seconds (fun () -> round acc ~rng ~tr) in
  let failed =
    acc.shed + acc.wrong + acc.duplicated + acc.unanswered + acc.uncommitted
  in
  let n_slots = List.length acc.slot_ms in
  let vt q =
    Option.value ~default:nan (Metrics.bucket_quantile ~q acc.lat_buckets)
  in
  let setup_s = median acc.setup in
  let req_s = median acc.steady_rates in
  let wave_req_s = median acc.wave_rates in
  let slot_p50 = quantile 0.5 acc.slot_ms in
  let slot_p95 = quantile 0.95 acc.slot_ms in
  let n_setup = List.length acc.setup in
  let n_steady = List.length acc.steady_rates in
  let n_waves = List.length acc.wave_rates in
  let fail_share = float_of_int failed /. float_of_int (max 1 acc.attempted) in
  let e2e =
    end_to_end ~setup:acc.setup ~heap ~rates:acc.wave_rates ~op_ms:acc.slot_ms
  in
  let detail =
    [ metric "setup_s" "s" setup_s ~samples:n_setup;
      metric "peak_heap_mb" "MB" heap;
      metric "req_per_s" "1/s" req_s ~samples:n_steady;
      metric "wave_req_per_s" "1/s" wave_req_s ~samples:n_waves;
      metric "slot_ms_p50" "ms" slot_p50 ~samples:n_slots;
      metric "slot_ms_p95" "ms" slot_p95 ~samples:n_slots;
      metric "vt_lat_p50" "vt" (vt 0.5) ~samples:acc.answered;
      metric "vt_lat_p99" "vt" (vt 0.99) ~samples:acc.answered;
      metric "fail_share" "1" fail_share ~samples:acc.attempted ]
  in
  let layers =
    match tr with
    | None -> []
    | Some tr ->
      let per_req x = float_of_int x /. float_of_int (max 1 acc.answered) in
      let per_op x = x /. float_of_int (max 1 n_slots) in
      let rounds = float_of_int acc.rounds in
      Setup.layer_metrics tr ~replays:acc.rounds
      @ [ op_ms_p95 acc.slot_ms;
          metric "kv.steady_req_per_s" "1/s" req_s ~samples:n_steady;
          metric "kv.vt_lat_p50" "vt" (vt 0.5) ~samples:acc.answered;
          metric "kv.vt_lat_p99" "vt" (vt 0.99) ~samples:acc.answered;
          metric "sim.events_per_req" "1/req" (per_req acc.events);
          metric "sim.queue_len_max" "count" (float_of_int acc.queue_max);
          metric "bus.routed_per_req" "1/req" (per_req acc.routed);
          metric "bus.delivered_per_req" "1/req" (per_req acc.delivered);
          metric "bus.drain_redirects" "1/wave"
            (float_of_int acc.redirects /. float_of_int (max 1 acc.waves));
          metric "interp.instrs_per_req" "1/req" (per_req acc.instrs);
          metric "bus.run_s" "s/round" (total tr "bus.run" /. rounds);
          metric "gc.minor_words_per_req" "words/req"
            (acc.minor_words /. float_of_int (max 1 acc.answered));
          metric "gc.major_collections" "1/round" (float_of_int acc.major /. rounds);
          metric "reconfig.wave_s" "s"
            (total tr "reconfig.wave" /. float_of_int (max 1 acc.waves))
            ~samples:acc.waves;
          metric "reconfig.canary_rollbacks" "1/wave"
            (float_of_int acc.rollbacks /. float_of_int (max 1 acc.waves));
          metric "wal.appends" "1/op" (per_op (float_of_int (calls tr "wal.appends")));
          metric "wal.bytes" "B/op" (per_op (float_of_int (calls tr "wal.bytes")));
          metric "wal.syncs" "1/op" (per_op (float_of_int (calls tr "wal.syncs")));
          metric "wal.storage_s" "s/op" (per_op (total tr "wal.storage")) ]
  in
  { r_checks =
      [ ("ledger sent = answered + shed + inflight", acc.ledger_ok);
        ("zero wrong replies", acc.wrong = 0);
        ("zero duplicated replies", acc.duplicated = 0);
        ("every wave committed", acc.uncommitted = 0);
        ("every request answered", acc.unanswered = 0 && acc.shed = 0) ];
    r_attempted = acc.attempted;
    r_failed = failed;
    r_e2e = e2e;
    r_detail = detail;
    r_layers = layers }
