(* The ddet-log codec as it stood before the allocation-light rewrite:
   a Printf encoder, a boxed-Int32 CRC and a Scanf/token-list parser.
   It is kept as the differential reference, verbatim but for the
   unframed v1 format, which is gone from both: its magic is now a bad
   magic like any other. The library's codec must write the same bytes
   and, on any damaged input, return the same log, damage record and
   error string; where this one raises (a [b:] token other than
   true/false, a stray backslash after a closing quote) the library
   must return an error instead. *)

open Mvm
open Ddet_record

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, polynomial 0xEDB88320) over entry lines. The table
   is built lazily once; the checksum guards each entry against the bit
   rot and truncation a log suffers on its way off the production
   machine. *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           c :=
             if Int32.logand !c 1l <> 0l then
               Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
             else Int32.shift_right_logical !c 1
         done;
         !c))

let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFFl in
  String.iter
    (fun ch ->
      let ix = Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code ch))) 0xFFl) in
      c := Int32.logxor table.(ix) (Int32.shift_right_logical !c 8))
    s;
  Int32.logxor !c 0xFFFFFFFFl

let crc_hex s = Printf.sprintf "%08lx" (Int32.logand (crc32 s) 0xFFFFFFFFl)

(* ------------------------------------------------------------------ *)
(* encoding *)

let enc_value = function
  | Value.Vint n -> "i:" ^ string_of_int n
  | Value.Vbool b -> "b:" ^ string_of_bool b
  | Value.Vstr s -> "s:\"" ^ String.escaped s ^ "\""
  | Value.Vunit -> "u"

let enc_failure = function
  | Failure.Crash { sid; msg } ->
    Printf.sprintf "crash %d \"%s\"" sid (String.escaped msg)
  | Failure.Spec_violation tag -> Printf.sprintf "spec \"%s\"" (String.escaped tag)
  | Failure.Hang -> "hang"

let enc_op = function
  | Log.Op_send c -> "send " ^ c
  | Log.Op_recv c -> "recv " ^ c
  | Log.Op_spawn -> "spawn -"
  | Log.Op_lock m -> "lock " ^ m
  | Log.Op_unlock m -> "unlock " ^ m

let enc_entry = function
  | Log.Sched { tid; sid } -> Printf.sprintf "sched %d %d" tid sid
  | Log.Input { tid; chan; value } ->
    Printf.sprintf "input %d %s %s" tid chan (enc_value value)
  | Log.Read_val { tid; sid; kind; value } ->
    Printf.sprintf "readval %d %d %s %s" tid sid
      (match kind with Log.Mem -> "mem" | Log.Msg -> "msg")
      (enc_value value)
  | Log.Output { chan; value } ->
    Printf.sprintf "output %s %s" chan (enc_value value)
  | Log.Sync { tid; sid; op } -> Printf.sprintf "sync %d %d %s" tid sid (enc_op op)
  | Log.Cp_sched { tid; sid } -> Printf.sprintf "cpsched %d %d" tid sid
  | Log.Cp_input { tid; sid; chan; value } ->
    Printf.sprintf "cpinput %d %d %s %s" tid sid chan (enc_value value)
  | Log.Failure_desc f -> "faildesc " ^ enc_failure f
  | Log.Flight_note { buffered } -> Printf.sprintf "flight %d" buffered
  | Log.Mark m -> Printf.sprintf "mark \"%s\"" (String.escaped m)
  | Log.Govern { step; level; reason } ->
    Printf.sprintf "govern %d %d \"%s\"" step level (String.escaped reason)

let header_lines (log : Log.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "recorder \"%s\"\n" (String.escaped log.Log.recorder));
  Buffer.add_string b (Printf.sprintf "base-steps %d\n" log.Log.base_steps);
  Buffer.add_string b
    (match log.Log.failure with
    | Some f -> "failure " ^ enc_failure f ^ "\n"
    | None -> "failure none\n");
  (match log.Log.faults with
  | Some plan ->
    Buffer.add_string b
      (Printf.sprintf "faults \"%s\"\n" (String.escaped (Fault.to_string plan)))
  | None -> ());
  Buffer.contents b

let to_string (log : Log.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b "ddet-log v2\n";
  Buffer.add_string b (header_lines log);
  List.iter
    (fun e ->
      let line = enc_entry e in
      Buffer.add_string b (crc_hex line);
      Buffer.add_char b ' ';
      Buffer.add_string b line;
      Buffer.add_char b '\n')
    log.Log.entries;
  Buffer.add_string b (Printf.sprintf "end %d\n" (List.length log.Log.entries));
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* decoding *)

exception Parse of string

(* Split a line into space-separated tokens. A double quote opens an
   OCaml-escaped string span that runs to the matching close quote; the
   span (with a leading '"' marker) stays part of the current token, so
   both bare strings ([mark "a b"]) and typed values ([s:"a b"]) arrive as
   single tokens. *)
let tokens line =
  let n = String.length line in
  let out = ref [] in
  let buf = Buffer.create 16 in
  let flush () =
    if Buffer.length buf > 0 then begin
      out := Buffer.contents buf :: !out;
      Buffer.clear buf
    end
  in
  let rec plain i =
    if i >= n then flush ()
    else
      match line.[i] with
      | ' ' -> flush (); plain (i + 1)
      | '"' ->
        Buffer.add_char buf '"';
        quoted (i + 1)
      | c -> Buffer.add_char buf c; plain (i + 1)
  and quoted i =
    if i >= n then raise (Parse "unterminated string")
    else
      match line.[i] with
      | '"' -> plain (i + 1)
      | '\\' when i + 1 < n ->
        Buffer.add_char buf '\\';
        Buffer.add_char buf line.[i + 1];
        quoted (i + 2)
      | c -> Buffer.add_char buf c; quoted (i + 1)
  in
  plain 0;
  List.rev !out

let unescape s = Scanf.unescaped s

let dec_string tok =
  if String.length tok > 0 && tok.[0] = '"' then
    unescape (String.sub tok 1 (String.length tok - 1))
  else raise (Parse ("expected quoted string, got " ^ tok))

let dec_value tok =
  if tok = "u" then Value.unit
  else if String.length tok > 2 && String.sub tok 0 2 = "i:" then
    Value.int (int_of_string (String.sub tok 2 (String.length tok - 2)))
  else if String.length tok > 2 && String.sub tok 0 2 = "b:" then
    Value.bool (bool_of_string (String.sub tok 2 (String.length tok - 2)))
  else if String.length tok > 2 && String.sub tok 0 2 = "s:" then
    Value.str (dec_string (String.sub tok 2 (String.length tok - 2)))
  else raise (Parse ("bad value token " ^ tok))

let dec_failure = function
  | [ "crash"; sid; msg ] ->
    Failure.Crash { sid = int_of_string sid; msg = dec_string msg }
  | [ "spec"; tag ] -> Failure.Spec_violation (dec_string tag)
  | [ "hang" ] -> Failure.Hang
  | toks -> raise (Parse ("bad failure: " ^ String.concat " " toks))

let dec_op op obj =
  match op with
  | "send" -> Log.Op_send obj
  | "recv" -> Log.Op_recv obj
  | "spawn" -> Log.Op_spawn
  | "lock" -> Log.Op_lock obj
  | "unlock" -> Log.Op_unlock obj
  | _ -> raise (Parse ("bad sync op " ^ op))

let dec_entry_tokens line = function
  | [ "sched"; tid; sid ] ->
    Log.Sched { tid = int_of_string tid; sid = int_of_string sid }
  | [ "input"; tid; chan; v ] ->
    Log.Input { tid = int_of_string tid; chan; value = dec_value v }
  | [ "readval"; tid; sid; kind; v ] ->
    Log.Read_val
      {
        tid = int_of_string tid;
        sid = int_of_string sid;
        kind =
          (match kind with
          | "mem" -> Log.Mem
          | "msg" -> Log.Msg
          | _ -> raise (Parse ("bad read kind " ^ kind)));
        value = dec_value v;
      }
  | [ "output"; chan; v ] -> Log.Output { chan; value = dec_value v }
  | [ "sync"; tid; sid; op; obj ] ->
    Log.Sync { tid = int_of_string tid; sid = int_of_string sid; op = dec_op op obj }
  | [ "cpsched"; tid; sid ] ->
    Log.Cp_sched { tid = int_of_string tid; sid = int_of_string sid }
  | [ "cpinput"; tid; sid; chan; v ] ->
    Log.Cp_input
      {
        tid = int_of_string tid;
        sid = int_of_string sid;
        chan;
        value = dec_value v;
      }
  | "faildesc" :: rest -> Log.Failure_desc (dec_failure rest)
  | [ "flight"; n ] -> Log.Flight_note { buffered = int_of_string n }
  | [ "mark"; m ] -> Log.Mark (dec_string m)
  | [ "govern"; step; level; reason ] ->
    Log.Govern
      {
        step = int_of_string step;
        level = int_of_string level;
        reason = dec_string reason;
      }
  | _ -> raise (Parse ("bad entry: " ^ line))

let dec_entry line = dec_entry_tokens line (tokens line)

(* ------------------------------------------------------------------ *)
(* modes, damage reports *)

type mode = Log_io.mode = Strict | Salvage

type damage = Log_io.damage = {
  total_lines : int;
  salvaged_entries : int;
  corrupt_lines : (int * string * string) list;
  truncated : bool;
}

(* Every parse failure is reported with its 1-based line number and the
   offending text, whether it becomes a hard Error (Strict) or a damage
   record (Salvage). *)
let line_error n reason text =
  Printf.sprintf "line %d: %s (in: %S)" n reason text

let classify_exn = function
  | Parse msg -> Some msg
  | Stdlib.Failure msg -> Some msg
  | Scanf.Scan_failure msg -> Some msg
  | _ -> None

let is_crc_token tok =
  String.length tok = 8
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       tok

(* A v2 body line is `<crc8hex> <entry>`; header keywords and the trailer
   are never 8 hex digits, so classification is unambiguous. *)
let split_crc_line line =
  match String.index_opt line ' ' with
  | Some k when is_crc_token (String.sub line 0 k) ->
    Some (String.sub line 0 k, String.sub line (k + 1) (String.length line - k - 1))
  | _ -> None

type header = {
  mutable h_recorder : string;
  mutable h_base_steps : int;
  mutable h_failure : Failure.t option;
  mutable h_faults : Fault.plan option;
}

let parse_header_line hdr line =
  match tokens line with
  | [ "recorder"; name ] ->
    hdr.h_recorder <- dec_string name;
    true
  | [ "base-steps"; n ] ->
    hdr.h_base_steps <- int_of_string n;
    true
  | [ "failure"; "none" ] ->
    hdr.h_failure <- None;
    true
  | "failure" :: rest ->
    hdr.h_failure <- Some (dec_failure rest);
    true
  | [ "faults"; plan ] -> (
    match Fault.of_string (dec_string plan) with
    | Ok p ->
      hdr.h_faults <- Some p;
      true
    | Error e -> raise (Parse ("bad fault plan: " ^ e)))
  | _ -> false

let numbered_lines s =
  String.split_on_char '\n' s
  |> List.mapi (fun i l -> (i + 1, l))
  |> List.filter (fun (_, l) -> String.trim l <> "")

let fresh_header () =
  { h_recorder = "unknown"; h_base_steps = 0; h_failure = None; h_faults = None }

(* v2 parsing is a single line-by-line pass for both modes: Strict turns
   the first problem into an Error, Salvage records it and keeps the
   valid prefix. *)
let parse_v2 ~mode ~total_lines lines =
  let hdr = fresh_header () in
  let entries = ref [] in
  let corrupt = ref [] in
  let trailer : int option ref = ref None in
  let strict_error = ref None in
  let problem n reason text =
    match mode with
    | Strict ->
      if !strict_error = None then strict_error := Some (line_error n reason text)
    | Salvage -> corrupt := (n, reason, text) :: !corrupt
  in
  List.iter
    (fun (n, line) ->
      if !strict_error = None then
        match split_crc_line line with
        | Some (crc, body) ->
          if not (String.equal crc (crc_hex body)) then
            problem n
              (Printf.sprintf "crc mismatch (stored %s, computed %s)" crc
                 (crc_hex body))
              line
          else begin
            match dec_entry body with
            | e -> entries := e :: !entries
            | exception exn -> (
              match classify_exn exn with
              | Some msg -> problem n msg line
              | None -> raise exn)
          end
        | None -> (
          match tokens line with
          | [ "end"; count ] -> (
            match int_of_string_opt count with
            | Some c -> trailer := Some c
            | None -> problem n "bad trailer count" line)
          | exception exn -> (
            match classify_exn exn with
            | Some msg -> problem n msg line
            | None -> raise exn)
          | _ -> (
            match parse_header_line hdr line with
            | true -> ()
            | false -> problem n "unrecognised line" line
            | exception exn -> (
              match classify_exn exn with
              | Some msg -> problem n msg line
              | None -> raise exn))))
    lines;
  match !strict_error with
  | Some e -> Error e
  | None ->
    let entries = List.rev !entries in
    let truncated =
      match !trailer with
      | None -> true
      | Some c -> c <> List.length entries
    in
    if mode = Strict && truncated then
      Error
        (match !trailer with
        | None -> "missing `end` trailer (truncated log)"
        | Some c ->
          Printf.sprintf "trailer count %d does not match %d entries" c
            (List.length entries))
    else
      let log =
        Log.make ?faults:hdr.h_faults ~recorder:hdr.h_recorder ~entries
          ~base_steps:hdr.h_base_steps ~failure:hdr.h_failure ()
      in
      Ok
        ( log,
          {
            total_lines;
            salvaged_entries = List.length entries;
            corrupt_lines = List.rev !corrupt;
            truncated;
          } )

let of_string_report ?(mode = Strict) s =
  let lines = numbered_lines s in
  let total_lines = List.length lines in
  match lines with
  | [] -> Error "empty log"
  | (n0, magic) :: rest -> (
    match String.trim magic with
    | "ddet-log v2" -> parse_v2 ~mode ~total_lines rest
    | m -> (
      match mode with
      | Strict -> Error (line_error n0 ("bad magic: " ^ m) magic)
      | Salvage -> (
        (* even the magic can be the corrupted line; assume the current
           format and keep whatever survives *)
        match parse_v2 ~mode ~total_lines rest with
        | Error e -> Error e
        | Ok (log, damage) ->
          Ok
            ( log,
              {
                damage with
                corrupt_lines =
                  (n0, "bad magic", magic) :: damage.corrupt_lines;
              } ))))

