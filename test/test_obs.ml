(* Unit tests for the passive metrics registry (lib/obs) and its
   report rendering, plus one end-to-end check that a bus-level
   migration records a span tree whose phases tile the disruption
   window. *)

module Metrics = Dr_obs.Metrics
module Bus = Dr_bus.Bus
module Script = Dr_reconfig.Script

(* ------------------------------------------------------- instruments *)

let test_counters () =
  let r = Metrics.create () in
  Metrics.incr r "events";
  Metrics.incr r ~by:4 "events";
  Alcotest.(check int) "accumulates" 5 (Metrics.counter_value r "events");
  Alcotest.(check int) "missing reads 0" 0 (Metrics.counter_value r "ghost");
  (* label order must not matter *)
  Metrics.incr r ~labels:[ ("a", "1"); ("b", "2") ] "routed";
  Metrics.incr r ~labels:[ ("b", "2"); ("a", "1") ] "routed";
  Alcotest.(check int) "labels canonicalised" 2
    (Metrics.counter_value r ~labels:[ ("a", "1"); ("b", "2") ] "routed");
  Alcotest.(check int) "distinct labels are distinct" 0
    (Metrics.counter_value r ~labels:[ ("a", "1") ] "routed");
  Alcotest.(check int) "reads do not create instruments" 2
    (List.length (Metrics.counters r))

let test_gauges () =
  let r = Metrics.create () in
  Alcotest.(check (option (float 0.))) "missing gauge" None
    (Metrics.gauge_value r "depth");
  Metrics.set_gauge r "depth" 3.0;
  Metrics.set_gauge r "depth" 7.0;
  Alcotest.(check (option (float 0.))) "last write wins" (Some 7.0)
    (Metrics.gauge_value r "depth");
  Metrics.add_gauge r "in_flight" 1.0;
  Metrics.add_gauge r "in_flight" 1.0;
  Metrics.add_gauge r "in_flight" (-1.0);
  Alcotest.(check (option (float 0.))) "add accumulates" (Some 1.0)
    (Metrics.gauge_value r "in_flight")

let test_histograms () =
  let r = Metrics.create () in
  List.iter (Metrics.observe r "lat") [ 0.0; 0.5; 1.0; 2.0; 3.0; 1024.0 ];
  Alcotest.(check int) "count" 6 (Metrics.histogram_count r "lat");
  Alcotest.(check int) "missing histogram" 0 (Metrics.histogram_count r "nope");
  let json = Metrics.snapshot_json ~now:0.0 r in
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  (* 0 lands in the le0 bucket; 1024 = 2^10 in bucket 10 *)
  Alcotest.(check bool) "le0 bucket" true (contains {|"le0":1|});
  Alcotest.(check bool) "2^10 bucket" true (contains {|"10":1|});
  Alcotest.(check bool) "sum" true (contains {|"sum":1030.5|})

let test_collectors () =
  let r = Metrics.create () in
  let sampled = ref 0 in
  Metrics.register_collector r (fun reg ->
      incr sampled;
      Metrics.set_gauge reg "sampled.depth" (float_of_int !sampled));
  Alcotest.(check (option (float 0.))) "not run yet" None
    (Metrics.gauge_value r "sampled.depth");
  Metrics.run_collectors r;
  Alcotest.(check (option (float 0.))) "sampled" (Some 1.0)
    (Metrics.gauge_value r "sampled.depth");
  ignore (Metrics.snapshot_json ~now:1.0 r);
  Alcotest.(check int) "snapshot runs collectors" 2 !sampled

(* ------------------------------------------------------------- spans *)

let test_span_tree () =
  let r = Metrics.create () in
  let root = Metrics.span r ~kind:"replace" ~start:1.0 () in
  let a = Metrics.child root ~kind:"drain" ~start:1.0 () in
  let b = Metrics.child root ~kind:"restore" ~start:2.0 () in
  Metrics.finish a ~at:2.0;
  Metrics.finish a ~at:99.0;
  Alcotest.(check (option (float 0.))) "first finish wins" (Some 1.0)
    (Metrics.span_duration a);
  Alcotest.(check (list string)) "children in creation order"
    [ "drain"; "restore" ]
    (List.map Metrics.span_kind (Metrics.span_children root));
  Alcotest.(check (option (float 0.))) "open span has no end" None
    (Metrics.span_end b);
  Metrics.set_attr b "outcome" "ok";
  Metrics.set_attr b "outcome" "error";
  Alcotest.(check (list (pair string string))) "set_attr replaces"
    [ ("outcome", "error") ] (Metrics.span_attrs b);
  Alcotest.(check int) "one root" 1 (List.length (Metrics.roots r))

let test_span_lazy_end () =
  let cell = ref None in
  let r = Metrics.create () in
  let s = Metrics.span r ~kind:"restore" ~start:5.0 () in
  Metrics.finish_with s (fun () -> !cell);
  Alcotest.(check (option (float 0.))) "thunk says not yet" None
    (Metrics.span_end s);
  cell := Some 9.0;
  Alcotest.(check (option (float 0.))) "thunk resolves later" (Some 9.0)
    (Metrics.span_end s);
  cell := None;
  Alcotest.(check (option (float 0.))) "resolution is sticky" (Some 9.0)
    (Metrics.span_end s)

let test_snapshot_deterministic () =
  let build order =
    let r = Metrics.create () in
    List.iter
      (fun (name, labels) -> Metrics.incr r ~labels name)
      order;
    Metrics.set_gauge r "g" 2.5;
    let s = Metrics.span r ~kind:"k" ~start:0.5 () in
    Metrics.finish s ~at:1.5;
    Metrics.snapshot_json ~now:2.0 r
  in
  let a =
    build [ ("x", [ ("i", "1") ]); ("x", [ ("i", "2") ]); ("y", []) ]
  in
  let b =
    build [ ("y", []); ("x", [ ("i", "2") ]); ("x", [ ("i", "1") ]) ]
  in
  Alcotest.(check string) "insertion order invisible" a b;
  let r = Metrics.create () in
  Metrics.incr r "n";
  Alcotest.(check string) "snapshot is repeatable"
    (Metrics.snapshot_json ~now:3.0 r)
    (Metrics.snapshot_json ~now:3.0 r)

(* ---------------------------------------------- end-to-end span tree *)

let test_migration_span_decomposition () =
  let system = Dr_workloads.Monitor.load () in
  let bus = Dr_workloads.Monitor.start system in
  let registry = Metrics.create () in
  Bus.set_metrics bus registry;
  Bus.run ~until:12.0 bus;
  (match
     Script.run_sync bus (fun ~on_done ->
         Script.migrate bus ~instance:"compute" ~new_instance:"c2"
           ~new_host:"hostB" ~on_done ())
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "migrate: %s" e);
  Bus.run ~until:(Bus.now bus +. 10.0) bus;
  let root =
    match Metrics.roots registry with
    | [ s ] -> s
    | roots -> Alcotest.failf "expected one root span, got %d" (List.length roots)
  in
  Alcotest.(check string) "kind" "migrate" (Metrics.span_kind root);
  Alcotest.(check (list string)) "phases in order"
    [ "signal"; "drain"; "capture"; "translate"; "restore" ]
    (List.map Metrics.span_kind (Metrics.span_children root));
  let total =
    match Metrics.span_duration root with
    | Some d -> d
    | None -> Alcotest.fail "window still open"
  in
  let sum =
    List.fold_left
      (fun acc s ->
        match Metrics.span_duration s with
        | Some d -> acc +. d
        | None -> Alcotest.failf "%s still open" (Metrics.span_kind s))
      0.0 (Metrics.span_children root)
  in
  Alcotest.(check (float 1e-9)) "phases tile the window" total sum;
  Alcotest.(check bool) "instructions counted" true
    (Metrics.counter_value registry
       ~labels:[ ("instance", "compute") ]
       "interp.instructions"
    > 0);
  Alcotest.(check int) "one signal" 1
    (Metrics.counter_value registry
       ~labels:[ ("instance", "compute") ]
       "reconfig.signals");
  let text = Dr_report.Obs_report.render ~now:(Bus.now bus) registry in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report shows the window" true
    (contains "disruption windows (virtual time):");
  Alcotest.(check bool) "report names the move" true
    (contains "migrate compute -> c2 (hostA => hostB)")

(* A migrate with a script-level deadline or retry policy is still a
   migrate: one root span of kind "migrate", not "replace". *)
let test_migrate_span_kind () =
  let migrate_roots ?deadline ?retry () =
    let bus = Dr_workloads.Monitor.start (Dr_workloads.Monitor.load ()) in
    let registry = Metrics.create () in
    Bus.set_metrics bus registry;
    Bus.run ~until:12.0 bus;
    (match
       Dynrecon.System.migrate ?deadline ?retry bus ~instance:"compute"
         ~new_instance:"c2" ~new_host:"hostB"
     with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "migrate: %s" e);
    List.map Metrics.span_kind (Metrics.roots registry)
  in
  Alcotest.(check (list string)) "with a deadline" [ "migrate" ]
    (migrate_roots ~deadline:50.0 ());
  Alcotest.(check (list string)) "with a retry policy" [ "migrate" ]
    (migrate_roots
       ~retry:{ Script.attempts = 2; backoff = 1.0; alt_hosts = [] }
       ())

let () =
  Alcotest.run "obs"
    [ ( "instruments",
        [ Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "collectors" `Quick test_collectors ] );
      ( "spans",
        [ Alcotest.test_case "tree" `Quick test_span_tree;
          Alcotest.test_case "lazy end" `Quick test_span_lazy_end;
          Alcotest.test_case "snapshot determinism" `Quick
            test_snapshot_deterministic ] );
      ( "end to end",
        [ Alcotest.test_case "migration decomposition" `Quick
            test_migration_span_decomposition;
          Alcotest.test_case "migrate span kind" `Quick test_migrate_span_kind
        ] ) ]
