(* Heterogeneous migration with heap state.

   A key-value store keeps its table in a heap-allocated array reached
   through a global (plus an interior pointer — the paper's symbolic
   pointer translation case). We migrate the store across three hosts
   with different architectures:

     hostA: x86_64  (little-endian, 64-bit)
     hostC: sparc32 (big-endian,    32-bit)
     hostB: arm32   (little-endian, 32-bit)

   At each hop the state image is re-encoded through the abstract format
   (§1.2): native(src) → abstract → native(dst). Values written before
   any hop remain readable after every hop.

   Run with: dune exec examples/hetero_kv.exe *)

module Bus = Dr_bus.Bus
module Kv = Dr_workloads.Kvstore

let wait_for_replies bus k =
  Bus.run_while bus ~max_events:3_000_000 (fun () ->
      List.length (Kv.client_got bus) < k)

let report bus label =
  let got = Kv.client_got bus in
  let correct = List.for_all (fun (k, v) -> v = k * 7) got in
  Printf.printf "%-28s %2d replies, all correct: %b (store on %s)\n" label
    (List.length got) correct
    (Option.value ~default:"?"
       (List.find_map
          (fun inst ->
            if inst <> "client" then Bus.instance_host bus ~instance:inst
            else None)
          (Bus.instances bus)))

let () =
  let system = Kv.load () in
  let bus = Kv.start system in
  wait_for_replies bus 3;
  report bus "initial (x86_64):";
  (match Dynrecon.System.migrate bus ~instance:"store" ~new_instance:"store_b" ~new_host:"hostC" with
  | Ok _ -> ()
  | Error e -> failwith ("hop 1: " ^ e));
  wait_for_replies bus 6;
  report bus "after hop to sparc32:";
  (match Dynrecon.System.migrate bus ~instance:"store_b" ~new_instance:"store_c" ~new_host:"hostB" with
  | Ok _ -> ()
  | Error e -> failwith ("hop 2: " ^ e));
  wait_for_replies bus 9;
  report bus "after hop to arm32:";
  print_endline "\nstate-image traffic:";
  List.iter
    (fun (e : Dr_sim.Trace.entry) ->
      if Dr_sim.Trace.category e.event = "state" then
        Printf.printf "  [%7.1f] %s\n" e.time (Dr_sim.Trace.detail e.event))
    (Dr_sim.Trace.entries (Bus.trace bus));
  (* demonstrate the word-size hazard: a 64-bit-only value cannot move to
     a 32-bit architecture *)
  print_endline "\nword-size hazard (expected failure):";
  let oversized =
    Dr_state.Image.make ~source_module:"store"
      ~records:
        [ { Dr_state.Image.location = 1;
            values = [ Dr_state.Value.Vint 0x1_0000_0000_0 ] } ]
      ~heap:[]
  in
  match
    Dr_reconfig.Primitives.translate_image bus ~src_host:"hostA" ~dst_host:"hostC"
      oversized
  with
  | Error e -> Printf.printf "  translation refused: %s\n" e
  | Ok _ -> print_endline "  unexpectedly succeeded!"
