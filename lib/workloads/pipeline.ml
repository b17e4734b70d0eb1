let mil =
  {|
module source {
  source = "./source.exe";
  define interface out pattern {integer};
}

module scale {
  source = "./scale.exe";
  use interface in pattern {integer};
  define interface out pattern {integer};
  reconfiguration point R;
}

module offset {
  source = "./offset.exe";
  use interface in pattern {integer};
  define interface out pattern {integer};
  reconfiguration point R;
}

module sink {
  source = "./sink.exe";
  use interface in pattern {integer};
}

application pipeline {
  instance source on "hostA";
  instance scale on "hostA";
  instance offset on "hostB";
  instance sink on "hostB";
  bind "source out" "scale in";
  bind "scale out" "offset in";
  bind "offset out" "sink in";
}
|}

let source_source =
  {|
module source;

var next: int = 0;

proc main() {
  mh_init();
  while (true) {
    next = next + 1;
    mh_write("out", next);
    sleep(2);
  }
}
|}

let stage_source ~name ~transform =
  Printf.sprintf
    {|
module %s;

var processed: int = 0;

proc main() {
  var x: int;
  mh_init();
  while (true) {
    R: mh_read("in", x);
    mh_write("out", %s);
    processed = processed + 1;
  }
}
|}
    name transform

let scale_source = stage_source ~name:"scale" ~transform:"x * 2"
let offset_source = stage_source ~name:"offset" ~transform:"x + 100"

let sink_source =
  {|
module sink;

var count: int = 0;

proc main() {
  var x: int;
  mh_init();
  while (true) {
    mh_read("in", x);
    count = count + 1;
    print("item ", x);
  }
}
|}

let sources =
  [ ("source", source_source);
    ("scale", scale_source);
    ("offset", offset_source);
    ("sink", sink_source) ]

let hosts =
  [ { Dr_bus.Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Dr_bus.Bus.host_name = "hostB"; arch = Dr_state.Arch.m68k };
    { Dr_bus.Bus.host_name = "hostC"; arch = Dr_state.Arch.sparc32 } ]

let load () =
  match Dynrecon.System.load ~mil ~sources () with
  | Ok system -> system
  | Error e -> failwith ("pipeline: load failed: " ^ e)

let start system =
  match
    Dynrecon.System.start system ~app:"pipeline" ~hosts
      ~default_host:"hostA" ()
  with
  | Ok bus -> bus
  | Error e -> failwith ("pipeline: start failed: " ^ e)

let sink_values bus =
  List.filter_map
    (fun line ->
      try Scanf.sscanf line "item %d" (fun v -> Some v)
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (Dr_bus.Bus.outputs bus ~instance:"sink")

let expected_prefix k = List.init k (fun i -> ((i + 1) * 2) + 100)
