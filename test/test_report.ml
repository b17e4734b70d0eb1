module Bus = Dr_bus.Bus
module Timeline = Dr_report.Timeline

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let lane_of rendered instance =
  List.find_opt
    (fun line ->
      String.length line > String.length instance
      && String.sub line 0 (String.length instance) = instance)
    (String.split_on_char '\n' rendered)

let test_monitor_timeline () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:30.0 bus;
  (match
     Dynrecon.System.migrate bus ~instance:"compute" ~new_instance:"compute2"
       ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 20.0) bus;
  let rendered = Timeline.render bus in
  (* all four incarnations have lanes *)
  List.iter
    (fun instance ->
      if lane_of rendered instance = None then
        Alcotest.failf "missing lane for %s" instance)
    [ "display"; "compute"; "sensor"; "compute2" ];
  (* the old compute's lane carries signal and divulge markers, and is
     marked removed *)
  (match lane_of rendered "compute " with
  | Some lane ->
    Alcotest.(check bool) "signal marker" true (contains lane "S");
    Alcotest.(check bool) "divulge marker" true (contains lane "D");
    Alcotest.(check bool) "removed" true (contains lane "removed")
  | None -> Alcotest.fail "no compute lane");
  (* the clone's lane starts with a restore marker and runs on hostB *)
  (match lane_of rendered "compute2" with
  | Some lane ->
    Alcotest.(check bool) "restore marker" true (contains lane "R");
    Alcotest.(check bool) "on hostB" true (contains lane "hostB")
  | None -> Alcotest.fail "no compute2 lane");
  (* the event log mentions the script *)
  Alcotest.(check bool) "script logged" true (contains rendered "replace compute")

let test_no_cross_instance_marker_bleed () =
  (* compute vs compute2: the deposit marker for compute2 must not
     appear on compute's lane *)
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  Bus.run ~until:20.0 bus;
  (match
     Dynrecon.System.migrate bus ~instance:"compute" ~new_instance:"compute2"
       ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  let rendered = Timeline.render bus in
  match lane_of rendered "compute " with
  | Some lane ->
    Alcotest.(check bool) "no R on the old lane" false
      (let bar_part =
         (* strip the trailing annotation after the bar *)
         match String.index_opt lane '(' with
         | Some i -> String.sub lane 0 i
         | None -> lane
       in
       contains bar_part "R")
  | None -> Alcotest.fail "no compute lane"

(* the bar of a lane: the 60 (default width) columns starting under the
   header's "t=0" — the annotation after it names hosts, and "hostB"
   holds a B *)
let bar_of rendered lane =
  let header = List.hd (String.split_on_char '\n' rendered) in
  let rec col i = if String.sub header i 3 = "t=0" then i else col (i + 1) in
  String.sub lane (col 0) 60

let test_rollback_marker () =
  (* the first capture is corrupted in flight, so the first attempt
     rolls back and restores compute; the retry then migrates it. The
     journal's undo line carries a "<label> [i/n]: " prefix, and the
     B must still land on compute's lane — and not bleed onto
     compute2's *)
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  (match Dr_bus.Faults.parse_plan "corrupt=compute@1" with
  | Ok (seed, plan) -> Dr_bus.Faults.install bus ~seed plan
  | Error e -> Alcotest.fail e);
  Bus.run ~until:12.0 bus;
  (match
     Dynrecon.System.migrate bus
       ~retry:
         { Dr_reconfig.Script.attempts = 2; backoff = 1.0; alt_hosts = [] }
       ~instance:"compute" ~new_instance:"compute2" ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 20.0) bus;
  let rendered = Timeline.render bus in
  Alcotest.(check bool) "the rollback restored compute" true
    (contains rendered "[2/2]: restored instance compute");
  (match lane_of rendered "compute " with
  | Some lane ->
    Alcotest.(check bool) "B on compute's lane" true
      (contains (bar_of rendered lane) "B")
  | None -> Alcotest.fail "no compute lane");
  match lane_of rendered "compute2" with
  | Some lane ->
    Alcotest.(check bool) "no B on compute2's lane" false
      (contains (bar_of rendered lane) "B")
  | None -> Alcotest.fail "no compute2 lane"

let test_markers_within_lifespan () =
  (* the rollback restores compute under its own name, so the trace
     holds two incarnations of "compute": the first attempt's signal
     must not land on the restored lane before it starts, nor the
     retry's signal and divulge on the original lane after it ends *)
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  (match Dr_bus.Faults.parse_plan "corrupt=compute@1" with
  | Ok (seed, plan) -> Dr_bus.Faults.install bus ~seed plan
  | Error e -> Alcotest.fail e);
  Bus.run ~until:12.0 bus;
  (match
     Dynrecon.System.migrate bus
       ~retry:
         { Dr_reconfig.Script.attempts = 2; backoff = 1.0; alt_hosts = [] }
       ~instance:"compute" ~new_instance:"compute2" ~new_host:"hostB"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 20.0) bus;
  let rendered = Timeline.render bus in
  let roster = Bus.roster bus in
  Alcotest.(check int) "two compute incarnations" 2
    (List.length
       (List.filter
          (fun (r : Bus.roster_entry) -> r.r_instance = "compute")
          roster));
  (* the same column mapping as the renderer's, default width *)
  let t_end = Float.max (Bus.now bus) 1e-9 in
  let column time = max 0 (min 59 (int_of_float (time /. t_end *. 59.0))) in
  let lanes = List.tl (String.split_on_char '\n' rendered) in
  List.iteri
    (fun i (r : Bus.roster_entry) ->
      let bar = bar_of rendered (List.nth lanes i) in
      let first = column r.r_started in
      let last = match r.r_ended with Some t -> column t | None -> 59 in
      String.iteri
        (fun c glyph ->
          if (c < first || c > last) && glyph <> ' ' then
            Alcotest.failf "lane %d (%s): %C at column %d, outside %d..%d" i
              r.r_instance glyph c first last)
        bar)
    roster

let test_empty_bus () =
  let bus = Bus.create ~hosts:Dr_workloads.Monitor.hosts () in
  let rendered = Timeline.render bus in
  Alcotest.(check bool) "renders" true (String.length rendered > 0)

let test_crash_marker () =
  let bus = Bus.create ~hosts:Dr_workloads.Monitor.hosts () in
  (match
     Bus.register_program bus
       (Support.parse "module boom;\nproc main() { var i: int; while (i < 50) { i = i + 1; } print(1 / 0); }")
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "register: %s" e);
  (match Bus.spawn bus ~instance:"b" ~module_name:"boom" ~host:"hostA" () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "spawn: %s" e);
  Bus.run bus;
  let rendered = Timeline.render bus in
  match lane_of rendered "b " with
  | Some lane -> Alcotest.(check bool) "X marker" true (contains lane "X")
  | None -> Alcotest.fail "no lane"

let () =
  Alcotest.run "report"
    [ ( "timeline",
        [ Alcotest.test_case "monitor migration" `Quick test_monitor_timeline;
          Alcotest.test_case "no marker bleed" `Quick
            test_no_cross_instance_marker_bleed;
          Alcotest.test_case "empty bus" `Quick test_empty_bus;
          Alcotest.test_case "crash marker" `Quick test_crash_marker;
          Alcotest.test_case "rollback marker" `Quick test_rollback_marker;
          Alcotest.test_case "markers within lifespan" `Quick
            test_markers_within_lifespan ] ) ]
