(** Runtime values of the mini-VM.

    A plain value ([t]) appears in programs, logs, and replay oracles; a
    tagged value ([tagged]) additionally carries taint inside the
    interpreter and in traces, feeding the data-rate analyses. *)

type t =
  | Vint of int
  | Vbool of bool
  | Vstr of string
  | Vunit

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [size_bytes v] is the value's approximate wire size; it drives recording
    cost accounting and data-rate classification. Ints count as 8 bytes,
    booleans as 1, strings as their length, unit as 0. *)
val size_bytes : t -> int

(** Convenience constructors. *)

val int : int -> t
val bool : bool -> t
val str : string -> t
val unit : t

(** Projections; each raises [Type_error] with a descriptive message when the
    value has the wrong shape — the interpreter converts that into a crash. *)

exception Type_error of string

val as_int : t -> int
val as_bool : t -> bool
val as_str : t -> string

(** A value together with the set of input channels it derives from. *)
type tagged = { v : t; taint : Taint.t }

(** [untainted v] tags [v] with empty taint. *)
val untainted : t -> tagged

(** [tag v taint] builds a tagged value. *)
val tag : t -> Taint.t -> tagged

val pp_tagged : Format.formatter -> tagged -> unit
