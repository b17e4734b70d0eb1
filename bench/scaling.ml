(* Bus scaling suite: an N-member token ring driven for a fixed event
   budget, measuring wall-clock deliveries/sec plus deploy time.

   Run with: dune exec bench/main.exe -- scaling            (full sweep)
             dune exec bench/main.exe -- scaling --quick    (CI smoke)

   The full sweep writes every row (N = 10 .. 100k) to
   BENCH_scaling.json and gates on the 100k deploy completing in
   bounded time. The quick sweep writes BENCH_scaling_quick.json — a
   separate artifact, so a CI run can never overwrite the full sweep's
   rows. *)

module Bus = Dr_bus.Bus
module Ring = Dr_workloads.Ring

type row = {
  sc_n : int;
  sc_deploy_ms : float;
  sc_events : int;
  sc_deliveries : int;
  sc_rate : float;  (* deliveries per wall-clock second *)
}

let run_one ~n ~events =
  let system = Ring.load_large ~n in
  let t0 = Unix.gettimeofday () in
  let bus = Ring.start_large system ~n ~tokens:(max 1 (n / 10)) in
  let t1 = Unix.gettimeofday () in
  Bus.run ~max_events:events bus;
  let t2 = Unix.gettimeofday () in
  let deliveries =
    List.fold_left
      (fun acc m -> acc + max 0 (Ring.passes bus ~instance:m))
      0 (Ring.members ~n)
  in
  { sc_n = n;
    sc_deploy_ms = (t1 -. t0) *. 1e3;
    sc_events = events;
    sc_deliveries = deliveries;
    sc_rate = float_of_int deliveries /. (t2 -. t1) }

(* The event budget must grow with N so large rings still complete whole
   passes: a delivery costs ~2 events (the delivery and the reader's
   quantum). *)
let events_for ?(base = 200_000) n = max base (4 * n)

let find_row rows ~n = List.find_opt (fun r -> r.sc_n = n) rows

let header () =
  print_newline ();
  print_endline "==============================================================";
  print_endline "Bus scaling: N-member ring, fixed event budget";
  print_endline "==============================================================";
  Printf.printf "%8s %12s %10s %12s %16s\n" "N" "deploy(ms)" "events"
    "deliveries" "deliveries/sec";
  Printf.printf "%s\n" (String.make 62 '-')

let sweep ~sizes ~base_events =
  List.map
    (fun n ->
      let r = run_one ~n ~events:(events_for ~base:base_events n) in
      Printf.printf "%8d %12.1f %10d %12d %16.0f\n%!" r.sc_n r.sc_deploy_ms
        r.sc_events r.sc_deliveries r.sc_rate;
      r)
    sizes

let row_json r =
  Json_out.obj
    [ ("n", Json_out.int r.sc_n);
      ("deploy_ms", Json_out.float r.sc_deploy_ms);
      ("events", Json_out.int r.sc_events);
      ("deliveries", Json_out.int r.sc_deliveries);
      ("deliveries_per_sec", Json_out.float r.sc_rate) ]

let write_artifact ~path rows =
  Json_out.write path
    (Json_out.obj
       [ ("suite", Json_out.str "scaling");
         ("rows", Json_out.arr (List.map row_json rows)) ])

(* The full sweep's artifact must carry the complete row set — the old
   harness let a quick CI run overwrite it with two rows, silently
   losing the published N=1000 figures. *)
let assert_full_rows ~sizes rows =
  List.iter
    (fun n ->
      if find_row rows ~n = None then
        failwith
          (Printf.sprintf "scaling: full artifact is missing the N=%d row" n))
    sizes

let full ?(sizes = [ 10; 100; 1000; 10_000; 100_000 ]) () =
  header ();
  let rows = sweep ~sizes ~base_events:200_000 in
  (* deploy-time gate: the 100k-instance deploy must complete in bounded
     wall-clock time, not just eventually *)
  (match find_row rows ~n:100_000 with
  | Some r ->
    Printf.printf "N=100000 deploy: %.1f ms (gate <= 120000)\n%!"
      r.sc_deploy_ms;
    if r.sc_deploy_ms > 120_000.0 then begin
      prerr_endline "scaling: GATE FAILED: 100k deploy exceeded 120s";
      exit 1
    end
  | None -> ());
  assert_full_rows ~sizes rows;
  write_artifact ~path:"BENCH_scaling.json" rows

let quick ?(sizes = [ 10; 1000; 10_000 ]) () =
  header ();
  let rows = sweep ~sizes ~base_events:100_000 in
  write_artifact ~path:"BENCH_scaling_quick.json" rows

let all ?quick:(q = false) () = if q then quick () else full ()
