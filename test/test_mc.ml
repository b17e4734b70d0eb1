(* Model-checker tests: the committed counterexample that flushed out
   the divulge-fencing bug, exploration regressions over the checked
   configuration catalogue, and a qcheck harness for replay stability.

   The counterexample schedule is pinned verbatim: it must keep parsing,
   keep replaying deterministically, and keep NOT firing any monitor.
   Before the fix (Script.replace's divulge continuation running after a
   controller crash interrupted the deadline rollback) it fired
   wal-consistent with "entry during rollback of script #1". *)

module Explorer = Dr_mc.Explorer
module Configs = Dr_mc.Configs

let config name =
  match Configs.by_name name with
  | Some c -> c
  | None -> Alcotest.failf "unknown mc config %s" name

let check_clean ~name (r : Explorer.result) =
  List.iter
    (fun ((v : Dr_mc.Monitor.violation), sched) ->
      Alcotest.failf "%s: monitor %s fired: %s\nschedule: %s" name
        v.Dr_mc.Monitor.v_monitor v.Dr_mc.Monitor.v_detail
        (String.concat " " (List.map Explorer.token_to_string sched)))
    r.Explorer.res_violations

let check_exhaustive ~name (r : Explorer.result) =
  let s = r.Explorer.res_stats in
  if s.Explorer.capped || s.Explorer.depth_cuts > 0 then
    Alcotest.failf "%s: exploration not exhaustive (capped=%b depth_cuts=%d)"
      name s.Explorer.capped s.Explorer.depth_cuts

(* Exact DPOR exploration counts. The bus's delivery path decides which
   engine events exist and how they are labelled, so a change to it
   (batching same-instant deliveries, running wakes inline) moves these
   numbers even when every trace and monitor verdict stays the same. *)
let check_counts ~name ~executions ~transitions ~states (r : Explorer.result) =
  let s = r.Explorer.res_stats in
  Alcotest.(check (list int))
    (name ^ ": executions / transitions / states")
    [ executions; transitions; states ]
    [ s.Explorer.executions; s.Explorer.transitions; s.Explorer.states ]

(* The schedule the checker minimized for the controller-crash /
   deadline-rollback / late-divulge race, committed the day it was
   found. [fire 8] is the replace deadline firing before the target's
   quantum [fire 6]; [ctlcrash] arms the controller to die on the
   rollback's own journal append. *)
let ctlcrash_divulge_schedule =
  "config single-replace-crash\n\
   fire 0\n\
   fire 1\n\
   deliver\n\
   fire 2\n\
   fire 3\n\
   fire 4\n\
   deliver\n\
   fire 5\n\
   deliver\n\
   fire 8\n\
   ctlcrash\n\
   fire 6\n\
   fire 7\n\
   deliver\n\
   fire 9\n\
   deliver\n\
   fire 10\n\
   fire 11\n\
   fire 12\n\
   fire 13\n\
   fire 14\n\
   fire 15\n\
   fire 16\n"

let test_ctlcrash_counterexample () =
  match Explorer.schedule_of_string ctlcrash_divulge_schedule with
  | Error e -> Alcotest.failf "schedule parse: %s" e
  | Ok (name, tokens) ->
    let name = Option.get name in
    Alcotest.(check string) "config header" "single-replace-crash" name;
    let r = Explorer.replay (config name) tokens in
    (match r.Explorer.rp_violation with
    | Some v ->
      Alcotest.failf "counterexample regressed: [%s] %s"
        v.Dr_mc.Monitor.v_monitor v.Dr_mc.Monitor.v_detail
    | None -> ());
    (* the fixed run departs from the buggy trajectory after the crash
       point, so full consumption isn't guaranteed — but a replay that
       stops before the [ctlcrash] token (position 11) never tested the
       race this schedule was minimized for *)
    if List.length r.Explorer.rp_schedule < 12 then
      Alcotest.failf "replay stopped before the crash point (%d choices)"
        (List.length r.Explorer.rp_schedule)

(* Exhaustive exploration of the acceptance configuration: every
   interleaving of one request against one replacement, all five
   monitors armed. *)
let test_single_replace_exhaustive () =
  let r = Explorer.explore ~mode:Explorer.Dpor (config "single-replace") in
  check_clean ~name:"single-replace" r;
  check_exhaustive ~name:"single-replace" r;
  check_counts ~name:"single-replace" ~executions:132 ~transitions:1457
    ~states:175 r

(* The configuration that caught the divulge-fencing bug, explored in
   full: a crash budget of one (kill or controller crash) and the
   controller-crash adversary enabled. *)
let test_crash_config_clean () =
  let r =
    Explorer.explore ~mode:Explorer.Dpor (config "single-replace-crash")
  in
  check_clean ~name:"single-replace-crash" r;
  check_counts ~name:"single-replace-crash" ~executions:717 ~transitions:7974
    ~states:759 r

(* The controller interleaving the explorer exists for: two concurrent
   replacements of two cells behind one pinger. *)
let test_double_replace_exhaustive () =
  let r = Explorer.explore ~mode:Explorer.Dpor (config "double-replace") in
  check_clean ~name:"double-replace" r;
  check_exhaustive ~name:"double-replace" r;
  check_counts ~name:"double-replace" ~executions:5525 ~transitions:119_515
    ~states:6482 r

(* A configuration loads its workload once; every execution's boot only
   creates a bus and registers the already-loaded programs. Two boots of
   one configuration therefore register the very same AST. *)
let test_setup_shares_loaded_system () =
  let cfg = config "double-replace" in
  let a = cfg.Explorer.c_setup () and b = cfg.Explorer.c_setup () in
  let cell (r : Explorer.run) =
    match Dr_bus.Bus.registered_program r.Explorer.r_bus "cell" with
    | Some p -> p
    | None -> Alcotest.fail "cell not registered"
  in
  Alcotest.(check bool) "distinct buses" false
    (a.Explorer.r_bus == b.Explorer.r_bus);
  Alcotest.(check bool) "one loaded program" true (cell a == cell b)

(* One fault decision (drop or duplicate) anywhere in the run: the
   reliable layer must still deliver exactly once, epochs must not
   regress, and the journal must stay scannable. *)
let test_faults_config_clean () =
  let r =
    Explorer.explore ~mode:Explorer.Dpor (config "single-replace-faults")
  in
  check_clean ~name:"single-replace-faults" r

(* A dropped first request forces the retransmission path; the explorer
   necessarily visits such a schedule. Pin one as a deterministic
   replay: it must reach quiescence with no monitor firing. *)
let test_drop_schedule_replays () =
  let cfg = config "single-replace-faults" in
  let found = ref None in
  let on_exec (r : Explorer.exec_report) =
    match (!found, r.Explorer.ex_end) with
    | None, Explorer.Quiescent
      when List.mem Explorer.Drop r.Explorer.ex_schedule ->
      found := Some r.Explorer.ex_schedule
    | _ -> ()
  in
  ignore (Explorer.explore ~mode:Explorer.Dpor ~on_exec cfg);
  match !found with
  | None -> Alcotest.fail "no quiescent schedule with a drop was explored"
  | Some sched ->
    let r = Explorer.replay cfg sched in
    (match r.Explorer.rp_violation with
    | Some v ->
      Alcotest.failf "drop schedule fired [%s] %s" v.Dr_mc.Monitor.v_monitor
        v.Dr_mc.Monitor.v_detail
    | None -> ());
    Alcotest.(check string) "replays to quiescence" "quiescent"
      r.Explorer.rp_end

(* qcheck: any fault-free schedule the explorer visited replays to the
   same ending with no monitor firing — replay is deterministic and the
   monitors are quiet on the nominal subset. *)
let replay_stability =
  QCheck.Test.make ~count:25 ~name:"mc fault-free schedules replay clean"
    QCheck.(make Gen.int)
    (fun salt ->
      let cfg = config "single-replace" in
      let pool = ref [] in
      let on_exec (r : Explorer.exec_report) =
        match r.Explorer.ex_end with
        | Explorer.Quiescent -> pool := r.Explorer.ex_schedule :: !pool
        | _ -> ()
      in
      ignore (Explorer.explore ~mode:Explorer.Dpor ~on_exec cfg);
      let pool = Array.of_list !pool in
      Array.length pool > 0
      &&
      let sched = pool.(abs salt mod Array.length pool) in
      let r = Explorer.replay cfg sched in
      r.Explorer.rp_violation = None
      && String.equal r.Explorer.rp_end "quiescent")

(* {1 Monitor mutation tests}

   The exploration tests only show that the monitors stay quiet. These
   feed hand-made event sequences into a small bus and show that
   no-lost-state and no-double-serve fire on the defects they exist to
   catch, and stay quiet on the clean sequence. *)

module Bus = Dr_bus.Bus
module Monitor = Dr_mc.Monitor
module Trace = Dr_sim.Trace

let small_bus ~live =
  let bus = Bus.create ~hosts:Dr_mc.Workload.hosts () in
  let idle = Support.parse "module idle;\nproc main() { }" in
  (match Bus.register_program bus idle with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  List.iter
    (fun instance ->
      match Bus.spawn bus ~instance ~module_name:"idle" ~host:"mh1" () with
      | Ok () -> ()
      | Error e -> Alcotest.failf "spawn %s: %s" instance e)
    live;
  bus

(* Emit the events one at a time and step the monitor after each, as
   the explorer does after every transition; the first verdict wins. *)
let verdict make ~live events =
  let bus = small_bus ~live in
  let m : Monitor.t = make ~bus () in
  List.fold_left
    (fun acc event ->
      Bus.emit bus event;
      let v = m.Monitor.m_step () in
      if Option.is_some acc then acc else v)
    None events

let cell instance n =
  Trace.Print { instance; line = Printf.sprintf "cell %d %d" n (n * 10) }

let replacing instance new_instance =
  Trace.Replacing
    { instance; old_module = "cell"; old_host = "mh1"; new_instance;
      new_module = "cellv2"; new_host = "mh2" }

let restarted instance successor =
  Trace.Restarted { instance; successor; host = "mh1"; restart = 1; max = 3 }

let check_verdict what ~fires (v : Monitor.violation option) =
  match (fires, v) with
  | false, None | true, Some _ -> ()
  | false, Some v ->
    Alcotest.failf "%s: %s fired: %s" what v.Monitor.v_monitor
      v.Monitor.v_detail
  | true, None -> Alcotest.failf "%s: the monitor stayed quiet" what

let test_no_lost_state_fires () =
  let run = verdict Monitor.no_lost_state ~live:[] in
  check_verdict "clean lineage" ~fires:false
    (run
       [ cell "c1" 1; cell "c1" 2; replacing "c1" "c1v"; cell "c1v" 3;
         restarted "c1v" "c1v~1"; cell "c1v~1" 4; cell "c1v~1" 5 ]);
  check_verdict "count skip" ~fires:true
    (run [ cell "c1" 1; cell "c1" 3 ]);
  check_verdict "reset across a replacement" ~fires:true
    (run [ cell "c1" 1; cell "c1" 2; replacing "c1" "c1v"; cell "c1v" 1 ]);
  check_verdict "reset across a restart" ~fires:true
    (run [ cell "c1" 1; cell "c1" 2; restarted "c1" "c1~1"; cell "c1~1" 1 ]);
  (* without a lineage event the successor counts on its own, so the
     two resets above fire only because the event joined the lineages *)
  check_verdict "unrelated instances count apart" ~fires:false
    (run [ cell "c1" 1; cell "c1" 2; cell "c1v" 1 ])

let test_no_double_serve_fires () =
  let run ~live = verdict Monitor.no_double_serve ~live in
  check_verdict "both ends of a restart live" ~fires:true
    (run ~live:[ "w"; "w~1" ] [ restarted "w" "w~1" ]);
  check_verdict "only the successor live" ~fires:false
    (run ~live:[ "w~1" ] [ restarted "w" "w~1" ]);
  check_verdict "no restart" ~fires:false (run ~live:[ "w"; "w~1" ] [])

let () =
  Alcotest.run "mc"
    [ ( "counterexamples",
        [ Alcotest.test_case "ctlcrash divulge race stays fixed" `Quick
            test_ctlcrash_counterexample;
          Alcotest.test_case "dropped request replays clean" `Quick
            test_drop_schedule_replays ] );
      ( "exploration",
        [ Alcotest.test_case "single-replace exhaustive and clean" `Quick
            test_single_replace_exhaustive;
          Alcotest.test_case "crash budget finds nothing" `Quick
            test_crash_config_clean;
          Alcotest.test_case "double-replace exhaustive and clean" `Quick
            test_double_replace_exhaustive;
          Alcotest.test_case "setup shares the loaded system" `Quick
            test_setup_shares_loaded_system;
          Alcotest.test_case "fault budget finds nothing" `Quick
            test_faults_config_clean ] );
      ( "monitors",
        [ Alcotest.test_case "no-lost-state fires on broken lineages" `Quick
            test_no_lost_state_fires;
          Alcotest.test_case "no-double-serve fires on two live ends" `Quick
            test_no_double_serve_fires ] );
      ( "stability",
        [ QCheck_alcotest.to_alcotest replay_stability ] ) ]
