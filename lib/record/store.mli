(** Pluggable storage under the record stack.

    Every byte the recorder persists — monolithic logs, segments,
    manifests, checkpoints — flows through this interface, so one
    implementation swap subjects the entire pipeline to hostile I/O
    ({!Faulty_store}) or absorbs transient faults ({!Retry}). Atomic
    replacement is derived from the primitives here, so injected write
    and rename faults exercise the real atomic path. *)

type op = Write | Append | Fsync | Rename | Remove

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
  append : string -> string -> (unit, error) result;
      (** append bytes to a path, opening a write handle on first use;
          flushed (not fsynced) per call, so a crash loses at most the
          bytes of the append in flight *)
  fsync : string -> (unit, error) result;
      (** flush and fsync the path's open handle (no-op if none) *)
  seal : string -> (unit, error) result;
      (** flush, fsync and close the path's open handle *)
  write : string -> string -> (unit, error) result;
      (** create/truncate the path with exactly these bytes, then seal *)
  rename : string -> string -> (unit, error) result;
  remove : string -> unit;  (** best-effort; missing files are fine *)
  exists : string -> bool;
}

(** [local ()] is the real filesystem, with its own handle table. *)
val local : unit -> t

(** [default ()] is a process-wide shared {!local} store — handles are
    keyed by path, so independent writers coexist safely. *)
val default : unit -> t

(** [atomic_write store path s] writes [s] to [path ^ ".tmp"], fsyncs,
    and renames over [path]: a crash or a fault at any point leaves the
    old file or the new one, never a half-written target. Errors from
    any leg surface as the store's typed error with the temp cleaned
    up. *)
val atomic_write : t -> string -> string -> (unit, error) result
