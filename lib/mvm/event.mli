(** Execution events: everything a recorder, analysis or replay constraint
    can observe about a run.

    Each executed statement produces one [Step] event followed by zero or
    more effect events, all stamped with the same step number, thread id,
    site id and enclosing function. *)

type access = {
  region : string;
  index : int option;  (** [None] for scalar regions *)
  value : Value.tagged;
}

type io = { chan : string; value : Value.tagged }

type kind =
  | Step  (** the scheduler ran one statement of this thread at this site *)
  | Read of access
  | Write of access
  | In of io  (** nondeterministic input consumed *)
  | Out of io  (** observable output produced *)
  | Msg_send of io
  | Msg_recv of io
  | Lock_acq of string
  | Lock_rel of string
  | Spawned of { child : int; fname : string }
  | Crashed of string

type t = {
  step : int;
  tid : int;
  sid : int;
  fname : string;
  kind : kind;
}

(** [is_shared_access e] is [true] for [Read]/[Write] events. *)
val is_shared_access : t -> bool

(** [data_bytes e] is the number of input-derived (tainted) bytes the event
    moves; untainted values count zero. Feeds data-rate classification. *)
val data_bytes : t -> int

val pp : Format.formatter -> t -> unit
