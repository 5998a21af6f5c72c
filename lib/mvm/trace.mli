(** Execution traces: the append-only event sequence of one run, plus the
    queries recorders, analyses and root-cause predicates need. *)

type t

(** [create ()] is an empty trace. *)
val create : unit -> t

(** [append t e] adds an event (interpreter use). *)
val append : t -> Event.t -> unit

(** [length t] is the number of events. *)
val length : t -> int

(** [events t] is all events in execution order. *)
val events : t -> Event.t list

val iter : (Event.t -> unit) -> t -> unit
val fold : ('acc -> Event.t -> 'acc) -> 'acc -> t -> 'acc
val filter : (Event.t -> bool) -> t -> Event.t list
val exists : (Event.t -> bool) -> t -> bool
val count : (Event.t -> bool) -> t -> int

(** [steps t] is the number of scheduler steps (i.e. [Step] events). *)
val steps : t -> int

(** [outputs t] is the per-channel output sequences, channels sorted by
    name, values in emission order. *)
val outputs : t -> (string * Value.t list) list

(** [outputs_on t chan] is the values emitted on [chan], in order. *)
val outputs_on : t -> string -> Value.t list

(** [inputs_on t chan] is [(step, tid, value)] for every input consumed from
    [chan], in order. *)
val inputs_on : t -> string -> (int * int * Value.t) list

(** [reads_by t tid] is the shared-read values of thread [tid] in program
    order — the projection a value-determinism recorder logs. *)
val reads_by : t -> int -> Value.t list

(** [writes_to_scalar t region] is [(step, tid, value)] for every write to
    scalar [region], in order. *)
val writes_to_scalar : t -> string -> (int * int * Value.t) list

(** [scalar_at t region ~init ~step] reconstructs the value of scalar
    [region] as of just before [step], folding writes over [init]. Root
    cause predicates use this to ask questions like "who owned range r when
    this row was committed?". *)
val scalar_at : t -> string -> init:Value.t -> step:int -> Value.t

(** [array_cell_at t region ~index ~init ~step] is the array analogue of
    [scalar_at]. *)
val array_cell_at : t -> string -> index:int -> init:Value.t -> step:int -> Value.t

(** [sched_points t] is the [(tid, sid)] sequence of all scheduler steps —
    a perfect-determinism schedule log. *)
val sched_points : t -> (int * int) list

val pp : Format.formatter -> t -> unit
