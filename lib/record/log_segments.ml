(* Segmented persistence. Layout for base path [p]:

     p.header     "ddet-seg-header v1" + recorder line  (atomic, first)
     p.NNNN.seg   "ddet-seg v1 N", CRC'd entry lines, "end N" trailer
     p.manifest   "ddet-manifest v1", header lines, per-segment CRCs,
                  "end <nsegs>"                         (atomic, last)

   Sealed segments are immutable and self-validating (line CRCs + entry
   trailer); the manifest additionally records each segment's whole-file
   CRC so post-seal bit rot is caught even when the lines still parse.
   Only the tail segment is ever in a half-written state, which bounds
   what a crash can lose. *)

let seg_path base i = Printf.sprintf "%s.%04d.seg" base i
let manifest_path base = base ^ ".manifest"
let header_path base = base ^ ".header"

let seg_magic = "ddet-seg v1"
let manifest_magic = "ddet-manifest v1"
let header_magic = "ddet-seg-header v1"

let exists base =
  Sys.file_exists (manifest_path base)
  || Sys.file_exists (header_path base)
  || Sys.file_exists (seg_path base 0)

(* ------------------------------------------------------------------ *)
(* writer *)

(* Every byte crosses the pluggable store, and a permanent store error
   makes the writer sticky-failed: appends become no-ops, the failure is
   readable via [writer_error], and close skips the manifest — a failed
   recording must never gain the marker that asserts completeness.
   Recovery then takes the scan path and reports the honest salvageable
   prefix. *)
type writer = {
  base : string;
  recorder : string;
  segment_entries : int;
  store : Store.t;
  mutable seg : int;  (* index of the segment being written *)
  mutable seg_file : string;  (* its path *)
  mutable count : int;  (* entries in that segment *)
  mutable open_seg : bool;  (* the segment file has been started *)
  buf : Log_io.out;  (* exact bytes of the open segment, for its CRC *)
  mutable sealed : (int * int * string) list;  (* rev (index, entries, crc) *)
  mutable closed : bool;
  mutable failed : Store.error option;  (* sticky permanent failure *)
}

let writer_error w = w.failed

let fail w e = if w.failed = None then w.failed <- Some e

let create ?store ?(segment_entries = 64) ~recorder base =
  if segment_entries < 1 then invalid_arg "Log_segments.create: segment_entries";
  let store = match store with Some s -> s | None -> Store.default () in
  store.Store.remove (manifest_path base);
  let rec clean i =
    if store.Store.exists (seg_path base i) then begin
      store.Store.remove (seg_path base i);
      clean (i + 1)
    end
  in
  clean 0;
  let w =
    {
      base;
      recorder;
      segment_entries;
      store;
      seg = 0;
      seg_file = seg_path base 0;
      count = 0;
      open_seg = false;
      buf = Log_io.out_create 4096;
      sealed = [];
      closed = false;
      failed = None;
    }
  in
  (* the header ships before any entry: a recovery that races a crash
     still learns which recorder produced the segments *)
  (match
     Store.atomic_write store (header_path base)
       (Printf.sprintf "%s\nrecorder \"%s\"\n" header_magic
          (String.escaped recorder))
   with
  | Ok () -> ()
  | Error e -> fail w e);
  w

(* hand the segment bytes written since [start] to the store; once the
   writer has failed they are never read again *)
let put w start =
  if w.failed = None then
    match
      w.store.Store.append w.seg_file
        (Log_io.out_sub w.buf start (Log_io.out_length w.buf - start))
    with
    | Ok () -> ()
    | Error e -> fail w e

(* "<keyword> <n>\n" as one store append *)
let put_line w keyword n =
  let start = Log_io.out_length w.buf in
  Log_io.add_string w.buf keyword;
  Log_io.add_int w.buf n;
  Log_io.add_char w.buf '\n';
  put w start

let seal w =
  if w.open_seg then begin
    put_line w "end " w.count;
    (* seal (fsync + close) even after a failure, so the handle is
       released; only a clean segment earns a manifest entry *)
    (match w.store.Store.seal w.seg_file with
    | Ok () -> ()
    | Error e -> fail w e);
    if w.failed = None then
      w.sealed <-
        (w.seg, w.count, Log_io.crc_hex (Log_io.out_contents w.buf))
        :: w.sealed;
    w.open_seg <- false;
    Log_io.out_clear w.buf;
    w.seg <- w.seg + 1;
    w.seg_file <- seg_path w.base w.seg;
    w.count <- 0
  end

let append w entry =
  if w.closed then invalid_arg "Log_segments.append: writer is closed";
  if w.failed = None then begin
    if not w.open_seg then begin
      w.open_seg <- true;
      put_line w (seg_magic ^ " ") w.seg
    end;
    let start = Log_io.out_length w.buf in
    Log_io.framed w.buf Log_io.add_entry entry;
    put w start;
    if w.failed = None then begin
      w.count <- w.count + 1;
      if w.count >= w.segment_entries then seal w
    end
  end

let close w ~base_steps ~failure ?faults () =
  if not w.closed then begin
    seal w;
    w.closed <- true;
    match w.failed with
    | Some _ -> ()
    | None -> (
      let hdr_log =
        Log.make ?faults ~recorder:w.recorder ~entries:[] ~base_steps ~failure
          ()
      in
      let b = Log_io.out_create 1024 in
      Log_io.add_string b (manifest_magic ^ "\n");
      Log_io.add_header ~framed:false b hdr_log;
      let sealed = List.rev w.sealed in
      List.iter
        (fun (i, n, crc) ->
          Log_io.add_string b (Printf.sprintf "segment %04d %d %s\n" i n crc))
        sealed;
      Log_io.add_string b (Printf.sprintf "end %d\n" (List.length sealed));
      match
        Store.atomic_write w.store (manifest_path w.base) (Log_io.out_contents b)
      with
      | Ok () -> ()
      | Error e -> fail w e)
  end

let save_via store ?segment_entries base (log : Log.t) =
  let w = create ~store ?segment_entries ~recorder:log.Log.recorder base in
  List.iter (append w) log.Log.entries;
  close w ~base_steps:log.Log.base_steps ~failure:log.Log.failure
    ?faults:log.Log.faults ();
  match writer_error w with Some e -> Error e | None -> Ok ()

let save ?segment_entries base (log : Log.t) =
  match save_via (Store.default ()) ?segment_entries base log with
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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> In_channel.input_all ic)

(* Parse one segment file: entries that validate, and whether the segment
   is sealed (correct magic, every line CRC-clean, trailer agrees). A bad
   line ends the valid prefix — later lines of a torn segment are not
   trusted. *)
let parse_segment ~index contents =
  let d = Log_io.decoder contents in
  let magic = seg_magic ^ " " ^ string_of_int index in
  let entries = ref [] and count = ref 0 in
  (* `Magic until the first non-blank line, then `Body until the trailer
     or a bad line *)
  let state = ref `Magic in
  Log_io.iter_lines contents (fun _ ls le ->
      if not (Log_io.is_blank contents ls le) then
        match !state with
        | `Magic ->
          state :=
            if String.equal (String.trim (String.sub contents ls (le - ls))) magic
            then `Body
            else `Bad
        | `Body -> (
          match Log_io.check_frame contents ls le with
          | Log_io.Framed -> (
            match Log_io.dec_entry d (ls + 9) le with
            | e ->
              entries := e :: !entries;
              incr count
            | exception Log_io.Parse _ -> state := `Bad)
          | Log_io.Bad_crc -> state := `Bad
          | Log_io.Unframed -> (
            match
              String.split_on_char ' '
                (String.trim (String.sub contents ls (le - ls)))
            with
            | [ "end"; n ] when int_of_string_opt n = Some !count ->
              state := `Sealed
            | _ -> state := `Bad))
        | `Sealed | `Bad -> ());
  (List.rev !entries, !state = `Sealed)

type manifest = {
  m_header : Log_io.header;
  m_segments : (int * int * string) list;  (* (index, entries, crc) *)
}

(* [Some header] when the first non-blank line is [magic]; every later
   non-blank line goes to [f hdr line] *)
let parse_headed ~magic contents f =
  let hdr = Log_io.fresh_header () in
  let seen = ref `Nothing in
  Log_io.iter_lines contents (fun _ ls le ->
      if not (Log_io.is_blank contents ls le) then
        let line = String.sub contents ls (le - ls) in
        match !seen with
        | `Nothing ->
          seen :=
            if String.equal (String.trim line) magic then `Magic else `Other
        | `Magic -> f hdr line
        | `Other -> ());
  if !seen = `Magic then Some hdr else None

let parse_manifest contents =
  let segs = ref [] in
  let trailer = ref None in
  let ok = ref true in
  match
    parse_headed ~magic:manifest_magic contents (fun hdr line ->
        if !ok then
          match String.split_on_char ' ' (String.trim line) with
          | [ "segment"; i; n; crc ] -> (
            match (int_of_string_opt i, int_of_string_opt n) with
            | Some i, Some n -> segs := (i, n, crc) :: !segs
            | _ -> ok := false)
          | [ "end"; n ] -> trailer := int_of_string_opt n
          | _ -> (
            match Log_io.parse_header_line hdr line with
            | true -> ()
            | false | (exception Log_io.Parse _) -> ok := false))
  with
  | Some hdr when !ok && !trailer = Some (List.length !segs) ->
    Some { m_header = hdr; m_segments = List.rev !segs }
  | _ -> None

let read_header base =
  let path = header_path base in
  if not (Sys.file_exists path) then None
  else
    parse_headed ~magic:header_magic (read_file path) (fun hdr line ->
        try ignore (Log_io.parse_header_line hdr line)
        with Log_io.Parse _ -> ())

(* Crash recovery: walk segment files in order; sealed segments are
   recovered whole, the first unsealed (or missing) one contributes its
   valid prefix and ends the walk — the writer is strictly sequential, so
   nothing after a torn segment can be trusted to belong to this
   recording. *)
let scan_segments base =
  let rec go i found complete acc tail =
    let path = seg_path base i in
    if not (Sys.file_exists path) then (found, complete, List.rev acc, tail)
    else
      let entries, sealed = parse_segment ~index:i (read_file path) in
      if sealed then go (i + 1) (found + 1) (complete + 1) (List.rev_append entries acc) tail
      else (found + 1, complete, List.rev (List.rev_append entries acc), List.length entries)
  in
  go 0 0 0 [] 0

let load base =
  let manifest =
    let path = manifest_path base in
    if Sys.file_exists path then parse_manifest (read_file path) else None
  in
  (* every listed segment present, byte-CRC clean, sealed and of the
     listed size — or the scan below takes over *)
  let validated =
    match manifest with
    | None -> None
    | Some m ->
      let rec segments acc = function
        | [] -> Some (m, List.concat (List.rev acc))
        | (i, n, crc) :: rest ->
          let path = seg_path base i in
          if not (Sys.file_exists path) then None
          else
            let contents = read_file path in
            if not (Log_io.crc_matches crc contents 0 (String.length contents))
            then None
            else
              let entries, sealed = parse_segment ~index:i contents in
              if sealed && List.length entries = n then
                segments (entries :: acc) rest
              else None
      in
      segments [] m.m_segments
  in
  match validated with
  | Some (m, entries) ->
    let log =
      Log.make ?faults:m.m_header.Log_io.h_faults
        ~recorder:m.m_header.Log_io.h_recorder ~entries
        ~base_steps:m.m_header.Log_io.h_base_steps
        ~failure:m.m_header.Log_io.h_failure ()
    in
    Ok
      ( log,
        {
          segments_found = List.length m.m_segments;
          segments_complete = List.length m.m_segments;
          entries = List.length entries;
          tail_entries = 0;
          complete = true;
        } )
  | None ->
    let found, complete, entries, tail_entries = scan_segments base in
    let hdr = read_header base in
    if found = 0 && hdr = None && manifest = None then
      Error (Printf.sprintf "no segmented recording at %s" base)
    else
      (* degraded header: prefer the manifest's (if it parsed at all),
         then the header file; the failure descriptor is recovered from
         the entries when the recorder logged one before the crash *)
      let recorder, base_steps, failure, faults =
        match (manifest, hdr) with
        | Some m, _ ->
          ( m.m_header.Log_io.h_recorder,
            m.m_header.Log_io.h_base_steps,
            m.m_header.Log_io.h_failure,
            m.m_header.Log_io.h_faults )
        | None, Some h ->
          (h.Log_io.h_recorder, h.Log_io.h_base_steps, h.Log_io.h_failure,
           h.Log_io.h_faults)
        | None, None -> ("unknown", 0, None, None)
      in
      let failure =
        match failure with
        | Some _ -> failure
        | None ->
          List.find_map
            (function Log.Failure_desc f -> Some f | _ -> None)
            entries
      in
      let log =
        Log.make ?faults ~recorder ~entries ~base_steps ~failure ()
      in
      Ok
        ( log,
          {
            segments_found = found;
            segments_complete = complete;
            entries = List.length entries;
            tail_entries;
            complete = false;
          } )
