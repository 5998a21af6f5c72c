(* Pluggable storage under the record stack.

   Everything the recorder persists — monolithic logs, segments,
   shards, manifests, checkpoints — goes through this interface, so a
   single implementation swap subjects the whole pipeline to hostile
   I/O (see Faulty_store) or absorbs transient faults (see Retry). The
   operation set is deliberately small, whole-file and POSIX-shaped:
   write a file, fsync it, rename, remove. A store holds no state, and
   durability is an explicit fsync, so an injected fsync fault reaches
   every durable file. Atomic replacement is derived from those
   primitives here so an injected rename or fsync fault exercises the
   real atomic path. *)

type op = Write | Fsync | Rename

let op_name = function Write -> "write" | Fsync -> "fsync" | Rename -> "rename"

type errkind =
  | Enospc  (** out of space; any prefix already handed over may persist *)
  | Eio of string  (** other I/O failure, with the OS detail *)

type error = {
  e_op : op;
  e_path : string;
  e_kind : errkind;
  transient : bool;
      (** a transient error persisted nothing (safe to retry verbatim);
          a permanent one may have torn the target *)
}

let errkind_name = function Enospc -> "ENOSPC" | Eio _ -> "EIO"

let pp_error ppf e =
  Format.fprintf ppf "%s(%s): %s%s%s" (op_name e.e_op) e.e_path
    (errkind_name e.e_kind)
    (match e.e_kind with Eio d -> " " ^ d | Enospc -> "")
    (if e.transient then " [transient]" else " [permanent]")

let error_to_string e = Format.asprintf "%a" pp_error e

type t = {
  name : string;
  write : string -> string -> (unit, error) result;
      (** create/truncate [path] with exactly these bytes; no sync *)
  fsync : string -> (unit, error) result;  (** make [path]'s bytes durable *)
  rename : string -> string -> (unit, error) result;
  remove : string -> unit;  (** best-effort; missing files are fine *)
}

(* ------------------------------------------------------------------ *)
(* the real filesystem *)

let local () =
  let wrap op path f =
    try Ok (f ()) with
    | Sys_error d -> Error { e_op = op; e_path = path; e_kind = Eio d; transient = false }
    | Unix.Unix_error (Unix.ENOSPC, _, _) ->
      Error { e_op = op; e_path = path; e_kind = Enospc; transient = false }
    | Unix.Unix_error (err, _, _) ->
      Error
        {
          e_op = op;
          e_path = path;
          e_kind = Eio (Unix.error_message err);
          transient = false;
        }
  in
  {
    name = "local";
    write =
      (fun path s ->
        wrap Write path (fun () ->
            (* flushed here: the close that follows swallows errors *)
            Out_channel.with_open_bin path (fun oc ->
                output_string oc s;
                flush oc)));
    fsync =
      (fun path ->
        wrap Fsync path (fun () ->
            (* fsync syncs the file, whichever descriptor asks *)
            let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.fsync fd)));
    rename = (fun src dst -> wrap Rename dst (fun () -> Sys.rename src dst));
    remove = (fun path -> try Sys.remove path with Sys_error _ -> ());
  }

(* ------------------------------------------------------------------ *)
(* derived: durable and atomic whole-file writes through the store *)

let durable_write store path s =
  Result.bind (store.write path s) (fun () -> store.fsync path)

let atomic_write store path s =
  let tmp = path ^ ".tmp" in
  let written =
    Result.bind (durable_write store tmp s) (fun () -> store.rename tmp path)
  in
  (* a torn temp file must not survive to be mistaken for data *)
  if Result.is_error written then store.remove tmp;
  written
