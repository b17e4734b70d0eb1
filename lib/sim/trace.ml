type endpoint = string * string

type event =
  | Signal of { instance : string }
  | Divulged of { instance : string; records : int; bytes : int }
  | Deposited of { instance : string }
  | Crashed of { instance : string; reason : string }
  | Lost of { src : endpoint; dst : endpoint }
  | Restored of { prefix : string; instance : string }
  | Replacing of
      { instance : string; old_module : string; old_host : string;
        new_instance : string; new_module : string; new_host : string }
  | Restarted of
      { instance : string; successor : string; host : string; restart : int;
        max : int }
  | Print of { instance : string; line : string }
  | Note of { category : string; detail : string }

type entry = { time : float; event : event }

type t = { mutable rev_entries : entry list; mutable count : int }

let create () = { rev_entries = []; count = 0 }

let record t ~time event =
  t.rev_entries <- { time; event } :: t.rev_entries;
  t.count <- t.count + 1

let notef t ~time category fmt =
  Format.kasprintf
    (fun detail -> record t ~time (Note { category; detail }))
    fmt

let category = function
  | Signal _ -> "signal"
  | Divulged _ | Deposited _ -> "state"
  | Crashed _ -> "crash"
  | Lost _ -> "fault"
  | Restored _ -> "rollback"
  | Replacing _ -> "script"
  | Restarted _ -> "supervisor"
  | Print _ -> "print"
  | Note { category; _ } -> category

let detail = function
  | Signal { instance } -> "reconfiguration signal -> " ^ instance
  | Divulged { instance; records; bytes } ->
    Printf.sprintf "%s divulged %d record(s), %d byte(s)" instance records bytes
  | Deposited { instance } -> "state image deposited into " ^ instance
  | Crashed { instance; reason } -> instance ^ " crashed: " ^ reason
  | Lost { src; dst } ->
    Printf.sprintf "injected loss: %s.%s -> %s.%s" (fst src) (snd src) (fst dst)
      (snd dst)
  | Restored { prefix; instance } -> prefix ^ "restored instance " ^ instance
  | Replacing r ->
    Printf.sprintf "replace %s: %s on %s -> %s: %s on %s" r.instance
      r.old_module r.old_host r.new_instance r.new_module r.new_host
  | Restarted r ->
    Printf.sprintf "restarted %s as %s on %s (restart %d of %d)" r.instance
      r.successor r.host r.restart r.max
  | Print { instance; line } -> instance ^ ": " ^ line
  | Note { detail; _ } -> detail

let entries t = List.rev t.rev_entries

(* The newest [count - n] cells of [rev_entries], reversed: O(new
   entries), so a reader that polls with a cursor never re-walks the
   whole trace. *)
let entries_from t n =
  let rec take k l acc =
    match l with
    | e :: rest when k > 0 -> take (k - 1) rest (e :: acc)
    | _ -> acc
  in
  take (t.count - n) t.rev_entries []

let length t = t.count

let pp_entry ppf e =
  Fmt.pf ppf "[%8.2f] %-12s %s" e.time (category e.event) (detail e.event)

let dump ppf t = List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (entries t)
