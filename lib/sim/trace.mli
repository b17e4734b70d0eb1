(** Append-only event trace.

    Components record timestamped, categorised entries; tests and the
    benchmark harness read them back to check ordering properties (e.g. that
    rebinding happens only after the old module divulged its state). *)

type entry = { time : float; category : string; detail : string }

type t

val create : unit -> t

val record : t -> time:float -> category:string -> detail:string -> unit

val entries : t -> entry list
(** In recording order. *)

val entries_from : t -> int -> entry list
(** [entries_from t n]: the entries at index [>= n], in recording order.
    Costs O(entries returned), not O(trace length) — for readers that
    keep a cursor ([n] = the {!length} they last saw). *)

val by_category : t -> string -> entry list

val length : t -> int

val clear : t -> unit

val pp_entry : Format.formatter -> entry -> unit

val dump : Format.formatter -> t -> unit
