(** Append-only event trace.

    Components record timestamped events; monitors, reports and tests read
    them back (e.g. to check that rebinding happens only after the old
    module divulged its state). The text is printed from one place:
    {!category} and {!detail} render an event, {!pp_entry}/{!dump} lay it
    out. The rule for readers: a reader that must recognise an event
    matches its constructor; if the event is still a [Note], the reader
    adds a constructor here (and its text in {!detail}) and never parses
    [detail]. Every event no reader matches on stays a [Note]. *)

type endpoint = string * string  (** (instance, interface) *)

type event =
  | Signal of { instance : string }  (** reconfiguration signal delivered *)
  | Divulged of { instance : string; records : int; bytes : int }
  | Deposited of { instance : string }  (** a state image was restored *)
  | Crashed of { instance : string; reason : string }
  | Lost of { src : endpoint; dst : endpoint }  (** injected message loss *)
  | Restored of { prefix : string; instance : string }
      (** a journal undo brought [instance] back; [prefix] is the undo
          line's "<label> [i/n]: " *)
  | Replacing of
      { instance : string; old_module : string; old_host : string;
        new_instance : string; new_module : string; new_host : string }
      (** a replace script hands [instance]'s state to [new_instance] *)
  | Restarted of
      { instance : string; successor : string; host : string; restart : int;
        max : int }  (** a supervised restart of [instance] as [successor] *)
  | Print of { instance : string; line : string }  (** program output *)
  | Note of { category : string; detail : string }

type entry = { time : float; event : event }

type t

val create : unit -> t

val record : t -> time:float -> event -> unit

val notef :
  t -> time:float -> string -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** [notef t ~time category fmt ...] records a [Note] of the formatted text. *)

val category : event -> string

val detail : event -> string

val entries : t -> entry list
(** In recording order. *)

val entries_from : t -> int -> entry list
(** [entries_from t n]: the entries at index [>= n], in recording order.
    Costs O(entries returned), not O(trace length) — for readers that
    keep a cursor ([n] = the {!length} they last saw). *)

val length : t -> int

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit
