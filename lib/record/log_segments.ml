(* Segmented persistence. Layout for base path [p]:

     p.header     entry stream "ddet-seg-header v1": the recorder line
                  only, no trailer                      (atomic, first)
     p.NNNN.seg   entry stream "ddet-seg v1 N": CRC'd entry lines,
                  "end N" trailer                (one write + fsync each)
     p.manifest   "ddet-manifest v2" in Log_io's manifest grammar: the
                  header lines, one segment line per segment,
                  "end" counts                          (atomic, last)

   Written segments are immutable and self-validating (line CRCs + entry
   trailer); the manifest additionally records each segment's whole-file
   CRC so bit rot after the save is caught even when the lines still
   parse. Only the segment being written is ever in a half-written
   state, which bounds what a crash can lose. *)

let seg_path base i = Printf.sprintf "%s.%04d.seg" base i
let manifest_path base = base ^ ".manifest"
let header_path base = base ^ ".header"

let seg_magic = "ddet-seg v1"
let manifest_magic = "ddet-manifest v2"
let header_magic = "ddet-seg-header v1"

(* the keyword of a segment's line in the manifest *)
let part = "segment"

let exists base =
  Sys.file_exists (manifest_path base)
  || Sys.file_exists (header_path base)
  || Sys.file_exists (seg_path base 0)

(* ------------------------------------------------------------------ *)
(* saving *)

(* Every byte crosses the pluggable store, one write and one fsync per
   segment. The first permanent store error ends the save and the
   manifest is withheld — a failed recording must never gain the marker
   that asserts completeness. Recovery then takes the scan path and
   reports the honest salvageable prefix. *)
let save_via store ?(segment_entries = 64) base (log : Log.t) =
  if segment_entries < 1 then
    invalid_arg "Log_segments.save_via: segment_entries";
  let ( let* ) = Result.bind in
  store.Store.remove (manifest_path base);
  let rec clean i =
    if Sys.file_exists (seg_path base i) then begin
      store.Store.remove (seg_path base i);
      clean (i + 1)
    end
  in
  clean 0;
  (* the segment being written, assembled whole: its bytes are written
     and CRC'd as one *)
  let buf = Log_io.out_create 4096 in
  let put_line keyword n =
    Log_io.add_string buf keyword;
    Log_io.add_int buf n;
    Log_io.add_char buf '\n'
  in
  (* segment [i] takes up to [segment_entries] of [entries]; the
     manifest parts of the durable segments come back in order *)
  let rec segments i parts = function
    | [] -> Ok (List.rev parts)
    | entries ->
      Log_io.out_clear buf;
      put_line (seg_magic ^ " ") i;
      let rec fill n = function
        | e :: rest when n < segment_entries ->
          Log_io.framed buf Log_io.add_entry e;
          fill (n + 1) rest
        | rest -> (n, rest)
      in
      let n, rest = fill 0 entries in
      put_line "end " n;
      let bytes = Log_io.out_contents buf in
      let* () = Store.durable_write store (seg_path base i) bytes in
      segments (i + 1)
        ((Printf.sprintf "%04d" i, n, Log_io.crc_hex bytes) :: parts)
        rest
  in
  (* the header ships before any entry: a recovery that races a crash
     still learns which recorder produced the segments *)
  let* () =
    Store.atomic_write store (header_path base)
      (Printf.sprintf "%s\nrecorder \"%s\"\n" header_magic
         (String.escaped log.Log.recorder))
  in
  let* parts = segments 0 [] log.Log.entries in
  Store.atomic_write store (manifest_path base)
    (Log_io.manifest_to_string ~magic:manifest_magic ~part
       { log with Log.entries = [] }
       parts ~order:[] ~edges:[])

let save ?segment_entries base (log : Log.t) =
  match save_via (Store.local ()) ?segment_entries base log with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Store.error_to_string e))

(* ------------------------------------------------------------------ *)
(* recovery *)

type recovery = {
  segments_found : int;
  segments_complete : int;
  entries : int;
  tail_entries : int;
  complete : bool;
}

let is_damaged r = not r.complete

let pp_recovery ppf r =
  if r.complete then
    Format.fprintf ppf "segmented log intact: %d entries in %d segment(s)"
      r.entries r.segments_found
  else
    Format.fprintf ppf
      "recovered %d entries (%d complete segment(s)%s) from a crashed \
       recording of %d segment file(s)"
      r.entries r.segments_complete
      (if r.tail_entries > 0 then
         Printf.sprintf " + %d salvaged tail entries" r.tail_entries
       else "")
      r.segments_found

(* One segment: its bytes, the entries of its valid prefix, and whether
   it is sealed (right magic and index, every line CRC-clean, trailer
   agrees). The first bad line ends the valid prefix: later lines of a
   torn segment are not trusted. [None] when the file is missing or
   cannot be read. *)
let read_segment base i =
  Result.to_option (Log_io.read_file (seg_path base i))
  |> Option.map (fun contents ->
         match
           Log_io.read_stream
             ~magic:(seg_magic ^ " " ^ string_of_int i)
             ~until_damage:true ~mode:Log_io.Salvage contents
         with
         | Ok (log, damage) ->
           (contents, log.Log.entries, not (Log_io.is_damaged damage))
         | Error _ -> (contents, [], false))

(* Crash recovery: walk segment files in order; sealed segments are
   recovered whole, the first unsealed one contributes its valid prefix
   and ends the walk, and so does a missing or unreadable one — the
   save is strictly sequential, so nothing after a torn segment can be
   trusted to belong to this recording. Returns (found, sealed, entries,
   tail entries). *)
let rec scan base i acc =
  match read_segment base i with
  | Some (_, entries, true) -> scan base (i + 1) (List.rev_append entries acc)
  | Some (_, tail, false) ->
    (i + 1, i, List.rev (List.rev_append tail acc), List.length tail)
  | None -> (i, i, List.rev acc, 0)

(* a complete manifest whose every segment is present, byte-CRC clean,
   sealed and of the listed size: the whole recording, and its number
   of segments *)
let from_manifest base (m : Log_io.manifest) =
  let rec go acc = function
    | [] ->
      Some
        ( { m.Log_io.header with Log.entries = List.concat (List.rev acc) },
          List.length m.Log_io.parts )
    | (p : Log_io.part) :: rest -> (
      match read_segment base p.Log_io.index with
      | Some (contents, entries, true)
        when Log_io.crc_matches p.Log_io.crc contents 0 (String.length contents)
             && List.length entries = p.Log_io.entries ->
        go (entries :: acc) rest
      | _ -> None)
  in
  if m.Log_io.complete then go [] m.Log_io.parts else None

let load base =
  if not (exists base) then
    Error (Printf.sprintf "no segmented recording at %s" base)
  else
    let manifest =
      Result.to_option (Log_io.read_file (manifest_path base))
      |> Fun.flip Option.bind
           (Log_io.manifest_of_string ~magic:manifest_magic ~part)
    in
    let recovered (log : Log.t) ~found ~sealed ~tail_entries ~complete =
      Ok
        ( log,
          {
            segments_found = found;
            segments_complete = sealed;
            entries = List.length log.Log.entries;
            tail_entries;
            complete;
          } )
    in
    match Option.bind manifest (from_manifest base) with
    | Some (log, n) ->
      recovered log ~found:n ~sealed:n ~tail_entries:0 ~complete:true
    | None ->
      let found, sealed, entries, tail_entries = scan base 0 [] in
      (* degraded header: a complete manifest's, else the header file's
         recorder line; the failure descriptor is recovered from the
         entries when the recorder logged one before the crash *)
      let h =
        match manifest with
        | Some { Log_io.complete = true; header; _ } -> header
        | _ -> (
          match
            Result.bind
              (Log_io.read_file (header_path base))
              (Log_io.read_stream ~magic:header_magic ~mode:Log_io.Salvage)
          with
          | Ok (h, _) -> h
          | Error _ ->
            Log.make ~recorder:"unknown" ~entries:[] ~base_steps:0
              ~failure:None ())
      in
      let failure =
        match h.Log.failure with
        | Some _ as f -> f
        | None ->
          List.find_map
            (function Log.Failure_desc f -> Some f | _ -> None)
            entries
      in
      recovered { h with Log.entries; failure } ~found ~sealed ~tail_entries
        ~complete:false
