(** Deterministic session tracing: spans, instants and counters in a
    preallocated ring.

    The tracer observes a live session — record, search, stitch — at a
    cost low enough to leave on in benchmarks, and deterministically
    enough that a trace is itself replay evidence: with timestamps
    masked, two runs of the same seed render byte-identical traces.

    Ownership rules that make that true:

    - Spans and instants are emitted only from the session's reducer
      thread (the thread driving record or search). The ring is
      single-writer; worker domains never touch it.
    - Worker domains report through {e counters} only: atomic cells
      whose adds commute, so totals are order-independent. When the
      attempt pool fans out ([--jobs] > 1), workers also run attempts
      past the first hit that are then cancelled, and worker counters
      count them, so the byte-identical contract is stated for
      sequential sessions.
    - Wall-time quantities (span timestamps, [_ns]-suffixed counters)
      are the only nondeterministic values, and {!render_masked} elides
      exactly those.

    The disabled path is one ref read: every ambient hook
    ([span_] / [instant_] / [count] / [handle]) is a no-op when no
    tracer is installed. *)

(** An argument value on an event. [Ns] marks wall-time, masked by
    {!render_masked}; [Count] is deterministic and rendered as-is. *)
type value = Count of int | Ns of int64

type kind = B  (** span begin *) | E  (** span end *) | I  (** instant *)

(** One ring slot, exposed for tests. *)
type ev = {
  mutable kind : kind;
  mutable name : string;
  mutable ts : int64;  (** monotonic ns, {!Clock.now} *)
  mutable args : (string * value) list;
}

type t

(** [create ?capacity ()] preallocates a ring of [capacity] (default
    65536) event slots. On overflow the oldest event is overwritten and
    {!dropped} counts the loss — recent history wins, and the drop
    count keeps the profile honest. *)
val create : ?capacity:int -> unit -> t

(** {1 Ambient installation} *)

(** [set_current (Some t)] installs [t] as the ambient tracer the
    instrumentation hooks write to; [set_current None] disables them. *)
val set_current : t option -> unit

val current : unit -> t option

(** [with_current t f] runs [f] with [t] installed, restoring the
    previous ambient tracer afterwards. *)
val with_current : t -> (unit -> 'a) -> 'a

(** {1 Events (reducer thread only)} *)

val span : t -> ?args:(string * value) list -> string -> (unit -> 'a) -> 'a
val instant : t -> ?args:(string * value) list -> string -> unit

(** Ambient variants: no-ops when disabled. *)
val span_ : ?args:(string * value) list -> string -> (unit -> 'a) -> 'a

val instant_ : ?args:(string * value) list -> string -> unit

(** {1 Counters (any domain)} *)

type counter

(** [counter t name] finds or creates the named counter. Counters whose
    name ends in [_ns] hold wall-time and are masked by
    {!render_masked}. *)
val counter : t -> string -> counter

(** [handle name] resolves a counter against the ambient tracer once,
    for hot paths: [None] when tracing is disabled. Create handles at
    setup time (reducer thread), bump them from anywhere. *)
val handle : string -> counter option

(** [bump h n] adds [n]; free when [h] is [None]. *)
val bump : counter option -> int -> unit

(** [count name n] is [bump (handle name) n] — for cool paths. *)
val count : string -> int -> unit

(** {1 Inspection} *)

val length : t -> int
val dropped : t -> int

(** Events currently in the ring, oldest first. *)
val events : t -> ev list

(** Counter totals, sorted by name. *)
val counters : t -> (string * int) list

(** Aggregated span statistics (by name, sorted), from well-nested B/E
    pairs in the ring. *)
type span_stat = { sname : string; calls : int; total_ns : int64 }

val profile : t -> span_stat list

(** {1 Exports} *)

(** Canonical deterministic rendering: one line per event and counter,
    timestamps elided, [Ns] args and [_ns] counters masked to [*].
    Two same-seed sequential sessions render byte-identically — the
    qcheck law in [test_obs]. *)
val render_masked : t -> string

(** Chrome trace-event JSON ([{"traceEvents":[...]}]): open in
    [about:tracing] or Perfetto. Timestamps are microseconds relative
    to the first event; counters appear as ["C"] samples at the end. *)
val to_chrome_json : t -> string
