let mil =
  {|
module sensor {
  source = "./sensor.exe";
  define interface out pattern {integer};
}

module display {
  source = "./display.exe";
  client interface temper pattern {integer} accepts {float};
}

module compute {
  source = "./compute.exe";
  machine = "hostA";
  server interface display pattern {integer} returns {float};
  use interface sensor pattern {integer};
  reconfiguration point R state {num, n, rp};
}

module compute_v2 {
  source = "./compute_v2.exe";
  server interface display pattern {integer} returns {float};
  use interface sensor pattern {integer};
  reconfiguration point R state {num, n, rp};
}

application monitor {
  instance display on "hostA";
  instance compute on "hostA";
  instance sensor on "hostA";
  bind "display temper" "compute display";
  bind "sensor out" "compute sensor";
}
|}

let sensor_source =
  {|
module sensor;

var temp: int = 0;

proc main() {
  mh_init();
  while (true) {
    temp = temp + 1;
    mh_write("out", temp);
    sleep(1);
  }
}
|}

let display_source =
  {|
module display;

proc main() {
  var n: int;
  var avg: float;
  n = 4;
  mh_init();
  while (true) {
    mh_write("temper", n);
    mh_read("temper", avg);
    print("avg(", n, ") = ", avg);
    sleep(8);
  }
}
|}

(* Fig. 3: loops forever; on a display request, recursively averages n
   sensor values; otherwise discards one pending value by averaging a
   single reading. The reconfiguration point R sits inside the recursive
   procedure, after the self-call. *)
let compute_body name ~extra_on_reply =
  Printf.sprintf
    {|
module %s;

var served: int = 0;

proc compute(num: int, n: int, ref rp: float) {
  var temper: int;
  if (n <= 0) { rp = 0.0; return; }
  compute(num, n - 1, rp);
  R: mh_read("sensor", temper);
  rp = rp + float(temper) / float(num);
}

proc main() {
  var n: int;
  var response: float;
  mh_init();
  while (true) {
    while (mh_query("display")) {
      mh_read("display", n);
      compute(n, n, response);
      mh_write("display", response);
      served = served + 1;%s
    }
    if (mh_query("sensor")) {
      compute(1, 1, response);
    }
    sleep(2);
  }
}
|}
    name extra_on_reply

let compute_source = compute_body "compute" ~extra_on_reply:""

let compute_v2_source =
  compute_body "compute_v2"
    ~extra_on_reply:{|
      print("served ", served, " request(s)");|}

let sources =
  [ ("sensor", sensor_source);
    ("display", display_source);
    ("compute", compute_source);
    ("compute_v2", compute_v2_source) ]

let hosts =
  [ { Dr_bus.Bus.host_name = "hostA"; arch = Dr_state.Arch.x86_64 };
    { Dr_bus.Bus.host_name = "hostB"; arch = Dr_state.Arch.sparc32 };
    { Dr_bus.Bus.host_name = "hostC"; arch = Dr_state.Arch.arm32 } ]

let load ?options () =
  match Dynrecon.System.load ~mil ~sources ?options () with
  | Ok system -> system
  | Error e -> failwith ("monitor: load failed: " ^ e)

let start system =
  match
    Dynrecon.System.start system ~app:"monitor" ~hosts ~default_host:"hostA" ()
  with
  | Ok bus -> bus
  | Error e -> failwith ("monitor: start failed: " ^ e)

let parse_displayed line =
  try Scanf.sscanf line "avg(%d) = %f" (fun n v -> Some (n, v))
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let averages_plausible ~n averages =
  let eps = 1e-9 in
  let offset = float_of_int (n - 1) /. 2.0 in
  let rec check prev_end = function
    | [] -> true
    | avg :: rest ->
      let start = avg -. offset in
      let rounded = Float.round start in
      Float.abs (start -. rounded) < eps
      && rounded >= float_of_int (prev_end + 1)
      && check (int_of_float rounded + n - 1) rest
  in
  check 0 averages
