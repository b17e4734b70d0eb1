(* Passive metrics registry on virtual time. No engine, no trace, no
   wall clock: every timestamp comes in from the caller, so attaching a
   registry cannot perturb a simulation. *)

type labels = (string * string) list

let canon labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

type key = string * labels

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : (int, int ref) Hashtbl.t;
      (* bucket i counts observations v with 2^i <= v < 2^(i+1);
         min_int collects v <= 0 *)
}

type span_end = End_open | End_at of float | End_thunk of (unit -> float option)

type span = {
  sp_kind : string;
  sp_start : float;
  mutable sp_attrs : labels;
  mutable sp_end : span_end;
  mutable sp_children : span list;  (* reverse creation order *)
}

type t = {
  counters : (key, int ref) Hashtbl.t;
  gauges : (key, float ref) Hashtbl.t;
  hists : (key, hist) Hashtbl.t;
  mutable collectors : (t -> unit) list;  (* reverse registration order *)
  mutable roots : span list;              (* reverse creation order *)
}

let create () =
  { counters = Hashtbl.create 32;
    gauges = Hashtbl.create 32;
    hists = Hashtbl.create 16;
    collectors = [];
    roots = [] }

let enabled_from_env () =
  match Sys.getenv_opt "DRC_METRICS" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

(* --- instruments --------------------------------------------------- *)

let incr t ?(labels = []) ?(by = 1) name =
  let key = (name, canon labels) in
  match Hashtbl.find_opt t.counters key with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters key (ref by)

let set_gauge t ?(labels = []) name v =
  let key = (name, canon labels) in
  match Hashtbl.find_opt t.gauges key with
  | Some r -> r := v
  | None -> Hashtbl.replace t.gauges key (ref v)

let add_gauge t ?(labels = []) name v =
  let key = (name, canon labels) in
  match Hashtbl.find_opt t.gauges key with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace t.gauges key (ref v)

let bucket_of v =
  if v <= 0. then min_int
  else
    (* floor(log2 v), nudged so exact powers of two land in their own
       bucket despite rounding *)
    int_of_float (Float.floor ((Float.log v /. Float.log 2.) +. 1e-9))

let observe t ?(labels = []) name v =
  let key = (name, canon labels) in
  let h =
    match Hashtbl.find_opt t.hists key with
    | Some h -> h
    | None ->
      let h =
        { h_count = 0; h_sum = 0.; h_min = infinity; h_max = neg_infinity;
          h_buckets = Hashtbl.create 8 }
      in
      Hashtbl.replace t.hists key h;
      h
  in
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  let b = bucket_of v in
  match Hashtbl.find_opt h.h_buckets b with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.replace h.h_buckets b (ref 1)

let register_collector t f = t.collectors <- f :: t.collectors

let run_collectors t = List.iter (fun f -> f t) (List.rev t.collectors)

let counter_value t ?(labels = []) name =
  match Hashtbl.find_opt t.counters (name, canon labels) with
  | Some r -> !r
  | None -> 0

let gauge_value t ?(labels = []) name =
  Option.map ( ! ) (Hashtbl.find_opt t.gauges (name, canon labels))

let histogram_count t ?(labels = []) name =
  match Hashtbl.find_opt t.hists (name, canon labels) with
  | Some h -> h.h_count
  | None -> 0

let histogram_buckets t ?(labels = []) name =
  match Hashtbl.find_opt t.hists (name, canon labels) with
  | None -> []
  | Some h ->
    Hashtbl.fold (fun e r acc -> (e, !r) :: acc) h.h_buckets []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

let bucket_quantile ~q buckets =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  if total = 0 || q <= 0. || q > 1. then None
  else
    let target = q *. float_of_int total in
    let rec walk cum = function
      | [] -> None
      | (e, n) :: rest ->
        let cum = cum + n in
        if float_of_int cum >= target -. 1e-9 then
          Some (if e = min_int then 0. else Float.pow 2. (float_of_int (e + 1)))
        else walk cum rest
    in
    walk 0 buckets

let sorted_entries tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (((na, la) : key), _) ((nb, lb), _) ->
         match String.compare na nb with 0 -> compare la lb | c -> c)

let counters t =
  List.map (fun ((name, labels), r) -> (name, labels, !r))
    (sorted_entries t.counters)

let gauges t =
  List.map (fun ((name, labels), r) -> (name, labels, !r))
    (sorted_entries t.gauges)

(* --- spans --------------------------------------------------------- *)

let span t ?(attrs = []) ~kind ~start () =
  let s =
    { sp_kind = kind; sp_start = start; sp_attrs = canon attrs;
      sp_end = End_open; sp_children = [] }
  in
  t.roots <- s :: t.roots;
  s

let child parent ?(attrs = []) ~kind ~start () =
  let s =
    { sp_kind = kind; sp_start = start; sp_attrs = canon attrs;
      sp_end = End_open; sp_children = [] }
  in
  parent.sp_children <- s :: parent.sp_children;
  s

let set_attr s k v = s.sp_attrs <- canon ((k, v) :: List.remove_assoc k s.sp_attrs)

let finish s ~at =
  match s.sp_end with End_open -> s.sp_end <- End_at at | _ -> ()

let finish_with s thunk =
  match s.sp_end with End_open -> s.sp_end <- End_thunk thunk | _ -> ()

let span_kind s = s.sp_kind
let span_start s = s.sp_start

let span_end s =
  match s.sp_end with
  | End_open -> None
  | End_at at -> Some at
  | End_thunk f -> (
    match f () with
    | Some at ->
      s.sp_end <- End_at at;
      Some at
    | None -> None (* keep the thunk: the phase may complete later *))

let span_duration s = Option.map (fun e -> e -. s.sp_start) (span_end s)
let span_children s = List.rev s.sp_children
let span_attrs s = s.sp_attrs
let roots t = List.rev t.roots

(* --- snapshot ------------------------------------------------------ *)

(* Hand-rolled JSON writer: deterministic field order, fixed float
   format, no dependencies. *)

let buf_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let buf_str b s =
  Buffer.add_char b '"';
  buf_escape b s;
  Buffer.add_char b '"'

let buf_float b v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" v)
  else Buffer.add_string b (Printf.sprintf "%.9g" v)

let buf_labels b labels =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      buf_str b k;
      Buffer.add_char b ':';
      buf_str b v)
    labels;
  Buffer.add_char b '}'

let rec buf_span b ~now s =
  Buffer.add_string b "{\"kind\":";
  buf_str b s.sp_kind;
  Buffer.add_string b ",\"start\":";
  buf_float b s.sp_start;
  let ended, at =
    match span_end s with Some at -> (true, at) | None -> (false, now)
  in
  Buffer.add_string b ",\"end\":";
  buf_float b at;
  Buffer.add_string b ",\"duration\":";
  buf_float b (at -. s.sp_start);
  if not ended then Buffer.add_string b ",\"open\":true";
  if s.sp_attrs <> [] then begin
    Buffer.add_string b ",\"attrs\":";
    buf_labels b s.sp_attrs
  end;
  (match span_children s with
  | [] -> ()
  | children ->
    Buffer.add_string b ",\"children\":[";
    List.iteri
      (fun i c ->
        if i > 0 then Buffer.add_char b ',';
        buf_span b ~now c)
      children;
    Buffer.add_char b ']');
  Buffer.add_char b '}'

let snapshot_json ~now t =
  run_collectors t;
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"now\":";
  buf_float b now;
  Buffer.add_string b ",\"counters\":[";
  List.iteri
    (fun i (((name, labels) : key), r) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      buf_str b name;
      Buffer.add_string b ",\"labels\":";
      buf_labels b labels;
      Buffer.add_string b ",\"value\":";
      Buffer.add_string b (string_of_int !r);
      Buffer.add_char b '}')
    (sorted_entries t.counters);
  Buffer.add_string b "],\"gauges\":[";
  List.iteri
    (fun i (((name, labels) : key), r) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      buf_str b name;
      Buffer.add_string b ",\"labels\":";
      buf_labels b labels;
      Buffer.add_string b ",\"value\":";
      buf_float b !r;
      Buffer.add_char b '}')
    (sorted_entries t.gauges);
  Buffer.add_string b "],\"histograms\":[";
  List.iteri
    (fun i (((name, labels) : key), h) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "{\"name\":";
      buf_str b name;
      Buffer.add_string b ",\"labels\":";
      buf_labels b labels;
      Buffer.add_string b ",\"count\":";
      Buffer.add_string b (string_of_int h.h_count);
      Buffer.add_string b ",\"sum\":";
      buf_float b h.h_sum;
      Buffer.add_string b ",\"min\":";
      buf_float b (if h.h_count = 0 then 0. else h.h_min);
      Buffer.add_string b ",\"max\":";
      buf_float b (if h.h_count = 0 then 0. else h.h_max);
      Buffer.add_string b ",\"buckets\":{";
      let buckets =
        Hashtbl.fold (fun k v acc -> (k, !v) :: acc) h.h_buckets []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      List.iteri
        (fun j (exp, n) ->
          if j > 0 then Buffer.add_char b ',';
          buf_str b (if exp = min_int then "le0" else string_of_int exp);
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int n))
        buckets;
      Buffer.add_string b "}}")
    (sorted_entries t.hists);
  Buffer.add_string b "],\"spans\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      buf_span b ~now s)
    (roots t);
  Buffer.add_string b "]}";
  Buffer.contents b
