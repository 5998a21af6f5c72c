(** Pluggable storage under the record stack.

    Every byte the recorder persists — monolithic logs, segments,
    shards, manifests, checkpoints — flows through this interface, so
    one implementation swap subjects the entire pipeline to hostile I/O
    ({!Faulty_store}) or absorbs transient faults ({!Retry}). A store is
    a stateless record of whole-file operations; durability is an
    explicit {!t.fsync}, and atomic replacement is derived from the
    primitives here, so injected write, fsync and rename faults exercise
    the real durable path. *)

type op = Write | Fsync | Rename

type errkind =
  | Enospc  (** out of space; any prefix already handed over may persist *)
  | Eio of string  (** other I/O failure, with the OS detail *)

(** The typed storage error. [transient] is the retry contract: a
    transient error persisted nothing, so retrying the same operation
    verbatim is safe; a permanent error may have torn the target. *)
type error = {
  e_op : op;
  e_path : string;
  e_kind : errkind;
  transient : bool;
}

val pp_error : Format.formatter -> error -> unit
val error_to_string : error -> string

type t = {
  name : string;
  write : string -> string -> (unit, error) result;
      (** create or truncate the path with exactly these bytes; no sync *)
  fsync : string -> (unit, error) result;
      (** make the path's bytes durable *)
  rename : string -> string -> (unit, error) result;
  remove : string -> unit;  (** best-effort; missing files are fine *)
}

(** [local ()] is the real filesystem. *)
val local : unit -> t

(** [durable_write store path s] writes [s] to [path], then fsyncs it:
    every evidence file is written this way. *)
val durable_write : t -> string -> string -> (unit, error) result

(** [atomic_write store path s] durably writes [s] to [path ^ ".tmp"]
    and renames it over [path]: a crash or a fault at any point
    leaves the old file or the new one, never a half-written target.
    Errors from any leg surface as the store's typed error with the temp
    removed. *)
val atomic_write : t -> string -> string -> (unit, error) result
