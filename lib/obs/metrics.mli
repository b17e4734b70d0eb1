(** Virtual-time metrics and span registry.

    A registry collects three kinds of instruments, each keyed by a
    metric name plus a small label set ([("instance", "monitor")],
    [("route", "a->b")], ...):

    - {b counters} — monotonically increasing integers (messages routed,
      instructions executed, retransmissions);
    - {b gauges} — last-write-wins floats (queue depth, in-flight
      frames);
    - {b histograms} — log-scale (base-2 bucketed) distributions of
      float observations (latencies, sizes).

    It also records {b spans}: named intervals of virtual time arranged
    in trees, used to decompose a reconfiguration's disruption window
    into signal / drain / capture / translate / restore phases.

    The registry is deliberately passive: it never schedules events,
    never touches the simulation trace, and never reads wall-clock time.
    Every timestamp is supplied by the caller (from the engine's virtual
    clock), so attaching a registry cannot perturb a simulation — golden
    traces stay byte-identical with metrics on.

    Snapshots serialise deterministically: instruments are sorted by
    (name, labels), spans appear in creation order, and floats are
    printed with a fixed format. *)

type t

type labels = (string * string) list
(** Label sets are canonicalised (sorted by key) on every use, so
    [[("a","1");("b","2")]] and [[("b","2");("a","1")]] address the same
    instrument. *)

val create : unit -> t

val enabled_from_env : unit -> bool
(** [true] iff the [DRC_METRICS] environment variable is set to [1],
    [true] or [yes]. Used by the bus to auto-attach a registry so the
    whole test suite can run metrics-on. *)

(** {1 Instruments} *)

val incr : t -> ?labels:labels -> ?by:int -> string -> unit
val set_gauge : t -> ?labels:labels -> string -> float -> unit

val add_gauge : t -> ?labels:labels -> string -> float -> unit
(** Add to a gauge (creating it at 0); negative deltas allowed. *)

val observe : t -> ?labels:labels -> string -> float -> unit
(** Record one observation into a log-scale histogram. *)

val register_collector : t -> (t -> unit) -> unit
(** Register a callback run at the start of every {!snapshot_json} (in
    registration order) — the hook for sampling state held elsewhere
    (queue depths, unacked frame counts) without coupling that code to
    the snapshot cadence. *)

(** {1 Reading back} (primarily for tests) *)

val counter_value : t -> ?labels:labels -> string -> int
(** 0 if the counter was never incremented. *)

val gauge_value : t -> ?labels:labels -> string -> float option

val histogram_count : t -> ?labels:labels -> string -> int

val histogram_buckets : t -> ?labels:labels -> string -> (int * int) list
(** The log-2 buckets as [(exponent, count)] pairs sorted by exponent:
    bucket [e] counts observations [v] with [2^e <= v < 2^(e+1)];
    exponent [min_int] collects [v <= 0]. Empty when the histogram does
    not exist. The raw material for windowed quantile estimates — diff
    two snapshots of the same histogram and feed the deltas to
    {!bucket_quantile}. *)

val bucket_quantile : q:float -> (int * int) list -> float option
(** Estimate the [q]-quantile (0 < q <= 1) from [(exponent, count)]
    bucket deltas: the upper bound [2^(e+1)] of the first bucket whose
    cumulative count reaches [q] of the total — a conservative
    (over-)estimate, appropriate for SLO ceilings. [None] when the
    total count is zero. *)

val counters : t -> (string * labels * int) list
(** All counters, sorted by (name, labels). *)

val gauges : t -> (string * labels * float) list
(** All gauges, sorted by (name, labels). Does not run collectors; call
    {!run_collectors} first for fresh sampled values. *)

val run_collectors : t -> unit

(** {1 Spans} *)

type span

val span : t -> ?attrs:labels -> kind:string -> start:float -> unit -> span
(** Open a new root span at virtual time [start]. *)

val child : span -> ?attrs:labels -> kind:string -> start:float -> unit -> span

val set_attr : span -> string -> string -> unit

val finish : span -> at:float -> unit
(** Close the span at virtual time [at]. Closing twice keeps the first
    end time. *)

val finish_with : span -> (unit -> float option) -> unit
(** Close the span with a thunk evaluated lazily (at snapshot or
    {!span_end} time) — for phases, like a clone's restore, that
    complete after the span is built. [None] leaves the span open (the
    thunk is retried on the next read). *)

val span_kind : span -> string
val span_start : span -> float

val span_end : span -> float option
(** Resolves a {!finish_with} thunk; [None] if the span is still open. *)

val span_duration : span -> float option
val span_children : span -> span list
(** In creation order. *)

val span_attrs : span -> labels
val roots : t -> span list

(** {1 Snapshot} *)

val snapshot_json : now:float -> t -> string
(** Serialise the whole registry to JSON. [now] (the engine's current
    virtual time) closes any still-open span for duration reporting and
    is echoed in the output. Runs registered collectors first. *)
