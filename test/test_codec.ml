(* Every on-disk evidence format: CRC32 known answers; the committed
   format fixtures, which the writers must reproduce byte for byte and
   the readers must load, including the checkpoints the odometer
   engines flush; a differential law against the Printf/Scanf
   codec the allocation-light one replaced (Ref_codec), over recorded
   and arbitrary logs, their every-byte truncations and random
   single-byte flips; and a law that the monolithic, segmented and
   sharded layouts all round-trip to the same log. *)

open Mvm
open Ddet_record
open Ddet_replay

let read_file path = In_channel.with_open_bin path In_channel.input_all
let fixture name = Filename.concat "fixtures" name

let fresh_dir () =
  let dir = Filename.temp_file "ddet_codec" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let remove_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* the fixture files of one recording, by name *)
let fixture_files prefix =
  Sys.readdir "fixtures" |> Array.to_list
  |> List.filter (String.starts_with ~prefix)
  |> List.sort compare

(* [dir] holds exactly the fixture files under [prefix], byte for byte *)
let check_written dir prefix =
  let written =
    Sys.readdir dir |> Array.to_list
    |> List.filter (String.starts_with ~prefix)
    |> List.sort compare
  in
  Alcotest.(check (list string)) "same file set" (fixture_files prefix) written;
  List.iter
    (fun f ->
      Alcotest.(check string) f (read_file (fixture f))
        (read_file (Filename.concat dir f)))
    written

let log_testable =
  Alcotest.testable (fun ppf l -> Log.pp ppf l) (fun a b -> a = b)

(* ------------------------------------------------------------------ *)
(* CRC32 *)

let test_crc_known_answers () =
  Alcotest.(check string) "check value" "cbf43926"
    (Log_io.crc_hex "123456789");
  Alcotest.(check string) "empty" "00000000" (Log_io.crc_hex "");
  let every_byte = String.init 256 Char.chr in
  Alcotest.(check string) "every byte, as the Int32 table computes it"
    (Ref_codec.crc_hex every_byte) (Log_io.crc_hex every_byte);
  Alcotest.(check bool) "a range is checked against its own bytes" true
    (Log_io.crc_matches "cbf43926" "xx123456789yy" 2 9)

(* Every (pos, len) range of strings of 0 to 64 bytes, so every
   alignment of the 8-byte steps and every tail length: [crc_hex] and
   [crc_matches] agree with the reference's byte-at-a-time Int32 CRC,
   and a stored CRC one bit off never matches. *)
let prop_crc_ranges =
  QCheck2.Test.make ~name:"crc_hex and crc_matches agree on every range"
    ~count:100 ~print:(Printf.sprintf "%S")
    QCheck2.Gen.(string_size (int_bound 64))
    (fun s ->
      let n = String.length s in
      for pos = 0 to n do
        for len = 0 to n - pos do
          let sub = String.sub s pos len in
          let expected = Ref_codec.crc_hex sub in
          let off_by_one =
            String.mapi
              (fun i c -> if i = 7 then if c = '0' then '1' else '0' else c)
              expected
          in
          if
            Log_io.crc_hex sub <> expected
            || (not (Log_io.crc_matches expected s pos len))
            || Log_io.crc_matches off_by_one s pos len
          then
            QCheck2.Test.fail_reportf "range (%d, %d) of %S: crc %s, expected %s"
              pos len s (Log_io.crc_hex sub) expected
        done
      done;
      true)

(* ------------------------------------------------------------------ *)
(* fixtures *)

let test_log_fixture () =
  let dir = fresh_dir () in
  Log_io.save
    (Filename.concat dir Codec_fixtures.log_file)
    Codec_fixtures.every_kind;
  check_written dir Codec_fixtures.log_file;
  remove_dir dir;
  Alcotest.(check string) "the reference writes the same bytes"
    (read_file (fixture Codec_fixtures.log_file))
    (Ref_codec.to_string Codec_fixtures.every_kind);
  match Log_io.load (fixture Codec_fixtures.log_file) with
  | Ok log -> Alcotest.check log_testable "loads" Codec_fixtures.every_kind log
  | Error e -> Alcotest.fail e

let test_segment_fixture () =
  let dir = fresh_dir () in
  let prefix = Codec_fixtures.seg_base ^ "." in
  Log_segments.save ~segment_entries:Codec_fixtures.seg_entries
    (Filename.concat dir Codec_fixtures.seg_base)
    Codec_fixtures.every_kind;
  check_written dir prefix;
  remove_dir dir;
  match Log_segments.load (fixture Codec_fixtures.seg_base) with
  | Ok (log, r) ->
    Alcotest.(check bool) "complete" true r.Log_segments.complete;
    Alcotest.check log_testable "loads" Codec_fixtures.every_kind log
  | Error e -> Alcotest.fail e

let test_sharded_fixture () =
  let dir = fresh_dir () in
  let prefix = Codec_fixtures.dist_base ^ "." in
  let report =
    Sharded_log.save_via (Store.local ())
      ~base:(Filename.concat dir Codec_fixtures.dist_base)
      ~causal:Codec_fixtures.causal Codec_fixtures.every_kind
  in
  Alcotest.(check bool) "saved" true (Sharded_log.save_ok report);
  check_written dir prefix;
  remove_dir dir;
  match Sharded_log.load (fixture Codec_fixtures.dist_base) with
  | Error e -> Alcotest.fail e
  | Ok l ->
    Alcotest.(check bool) "manifest complete" true
      l.Sharded_log.manifest_complete;
    let split =
      Sharded_log.split ~causal:Codec_fixtures.causal Codec_fixtures.every_kind
    in
    List.iter2
      (fun (node, slog) (s : Sharded_log.shard) ->
        Alcotest.(check string) "node order" node s.Sharded_log.node;
        Alcotest.(check string) (node ^ " intact") "intact"
          (Sharded_log.status_name s.Sharded_log.status);
        match s.Sharded_log.log with
        | Some log -> Alcotest.check log_testable (node ^ " shard") slog log
        | None -> Alcotest.fail (node ^ ": no log"))
      split l.Sharded_log.shards;
    Alcotest.(check bool) "edges" true
      (l.Sharded_log.edges = Codec_fixtures.causal.Causal.edges);
    Alcotest.(check int) "order covers every entry"
      (List.length Codec_fixtures.every_kind.Log.entries)
      (List.fold_left (fun acc (_, n) -> acc + n) 0 l.Sharded_log.order)

let test_checkpoint_fixture () =
  let dir = fresh_dir () in
  Checkpoint.write
    (Filename.concat dir Codec_fixtures.ckpt_file)
    Codec_fixtures.checkpoint;
  check_written dir Codec_fixtures.ckpt_file;
  remove_dir dir;
  (match Checkpoint.load (fixture Codec_fixtures.ckpt_file) with
  | Ok c ->
    Alcotest.(check bool) "loads" true (c = Codec_fixtures.checkpoint)
  | Error e -> Alcotest.fail e);
  (* a cut anywhere short of the final newline, a line boundary
     included, is refused: a torn frontier never resumes *)
  let whole = read_file (fixture Codec_fixtures.ckpt_file) in
  let path = Filename.temp_file "ddet_codec" ".ckpt" in
  for n = 0 to String.length whole - 2 do
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub whole 0 n));
    match Checkpoint.load path with
    | Ok _ -> Alcotest.failf "a checkpoint cut at byte %d loaded" n
    | Error _ -> ()
  done;
  Sys.remove path

(* an odometer engine's flushed frontier, byte for byte *)
let test_engine_checkpoint file search () =
  let dir = fresh_dir () in
  let sink = Checkpoint.sink ~every:1 (Filename.concat dir file) in
  ignore (search ~checkpoint:sink);
  check_written dir file;
  remove_dir dir

(* the pruned DFS's frontier: its seen digests let a resume replant the
   pruner, and an unpruned resume cannot finish that search the same way,
   so the file is refused at the line that carries them *)
let test_pruned_checkpoint_refused () =
  let path = fixture Codec_fixtures.pruned_ckpt_file in
  match Checkpoint.load path with
  | Ok _ -> Alcotest.fail "a pruned DFS frontier loaded"
  | Error e ->
    let seen_line =
      path ^ ": line 9: unrecognised line (in: \"6c1c90ed seen "
    in
    if not (String.starts_with ~prefix:seen_line e) then
      Alcotest.failf "error does not name the seen line: %s" e

(* ------------------------------------------------------------------ *)
(* the differential law *)

let mode_name = function
  | Log_io.Strict -> "strict"
  | Log_io.Salvage -> "salvage"

(* The library agrees with the reference on [s]: the same log, damage
   record or error string; where the reference raises, an Error
   (Strict) or a damage record (Salvage) instead. *)
let agrees mode s =
  let ours = Log_io.of_string_report ~mode s in
  let ok =
    match Ref_codec.of_string_report ~mode s with
    | reference -> reference = ours
    | exception _ -> (
      match (mode, ours) with
      | Log_io.Strict, Error _ -> true
      | Log_io.Salvage, Ok (_, damage) -> Log_io.is_damaged damage
      | _ -> false)
  in
  if not ok then
    QCheck2.Test.fail_reportf "%s decode of %S disagrees with the reference"
      (mode_name mode) s;
  true

let agrees_both s = agrees Log_io.Strict s && agrees Log_io.Salvage s

(* every-byte truncations and [flips] random single-byte flips; a
   disagreement reports the exact input, so the laws over whole logs do
   not shrink *)
let damaged_variants ~flips rand s =
  let n = String.length s in
  for k = 0 to n - 1 do
    ignore (agrees_both (String.sub s 0 k))
  done;
  if n > 0 then
    for _ = 1 to flips do
      let b = Bytes.of_string s in
      let pos = Random.State.int rand n in
      let byte = (Char.code s.[pos] + 1 + Random.State.int rand 255) mod 256 in
      Bytes.set b pos (Char.chr byte);
      ignore (agrees_both (Bytes.to_string b))
    done

let law_holds ~flips seed log =
  let v2 = Log_io.to_string log in
  if not (String.equal v2 (Ref_codec.to_string log)) then
    QCheck2.Test.fail_reportf "encoding differs from the reference:@ %S" v2;
  let rand = Random.State.make [| seed |] in
  ignore (agrees_both v2);
  damaged_variants ~flips rand v2;
  true

(* -- recorded logs: Proggen programs under every recorder, cut to a
   prefix so the every-byte sweep stays cheap *)

let recorders =
  [|
    (fun () -> Full_recorder.create ());
    (fun () -> Value_recorder.create ());
    (fun () -> Sync_recorder.create ());
    (fun () -> Output_recorder.create ());
    (fun () -> Failure_recorder.create ());
    (fun () ->
      Rcse_recorder.create (Fidelity_level.always Fidelity_level.High));
  |]

let recorded (pseed, wseed, r) =
  let labeled = Proggen.generate Proggen.default (Prng.create pseed) in
  let _, log =
    Recorder.record (recorders.(r) ()) labeled ~spec:Spec.accept_all
      ~world:(World.random ~seed:wseed)
  in
  { log with Log.entries = List.filteri (fun i _ -> i < 12) log.Log.entries }

let prop_recorded =
  QCheck2.Test.make
    ~name:"recorded logs: same bytes, same decode as the reference" ~count:12
    ~print:(fun (p, w, r) ->
      Printf.sprintf "program %d, world %d, recorder %d" p w r)
    QCheck2.Gen.(
      no_shrink (triple (int_range 1 5_000) (int_range 1 5_000) (int_bound 5)))
    (fun ((p, w, _) as scenario) ->
      law_holds ~flips:30 (p + w) (recorded scenario))

(* -- arbitrary logs: payloads with quotes, backslashes, newlines,
   control and non-ASCII bytes; min_int and max_int; and channel names
   the format never escapes, so even a framed line can tokenize badly *)

let payload_gen =
  QCheck2.Gen.(
    string_size (int_bound 6)
      ~gen:
        (oneof
           [
             oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; ' '; '0'; '9'; 'x'; 'n' ];
             char;
           ]))

let int_gen =
  QCheck2.Gen.(
    oneof [ int_range (-20) 300; oneofl [ min_int; max_int; -1 ]; int ])

let chan_gen =
  QCheck2.Gen.(
    oneof [ oneofl [ "c"; "in0"; "out" ]; oneofl [ "a b"; "q\""; "" ] ])

let value_gen =
  QCheck2.Gen.(
    oneof
      [
        map Value.int int_gen; map Value.bool bool; map Value.str payload_gen;
        return Value.unit;
      ])

let failure_gen =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun sid msg -> Failure.Crash { sid; msg }) int_gen payload_gen;
        map (fun t -> Failure.Spec_violation t) payload_gen;
        return Failure.Hang;
      ])

let entry_gen =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun tid sid -> Log.Sched { tid; sid }) int_gen int_gen;
      map3
        (fun tid chan value -> Log.Input { tid; chan; value })
        int_gen chan_gen value_gen;
      map3
        (fun (tid, sid) kind value -> Log.Read_val { tid; sid; kind; value })
        (pair int_gen int_gen) (oneofl [ Log.Mem; Log.Msg ]) value_gen;
      map2 (fun chan value -> Log.Output { chan; value }) chan_gen value_gen;
      map3
        (fun tid sid op -> Log.Sync { tid; sid; op })
        int_gen int_gen
        (oneof
           [
             map (fun c -> Log.Op_send c) chan_gen;
             map (fun c -> Log.Op_recv c) chan_gen;
             return Log.Op_spawn;
             map (fun m -> Log.Op_lock m) chan_gen;
             map (fun m -> Log.Op_unlock m) chan_gen;
           ]);
      map2 (fun tid sid -> Log.Cp_sched { tid; sid }) int_gen int_gen;
      map3
        (fun (tid, sid) chan value -> Log.Cp_input { tid; sid; chan; value })
        (pair int_gen int_gen) chan_gen value_gen;
      map (fun f -> Log.Failure_desc f) failure_gen;
      map (fun buffered -> Log.Flight_note { buffered }) int_gen;
      map (fun m -> Log.Mark m) payload_gen;
      map3
        (fun step level reason -> Log.Govern { step; level; reason })
        int_gen int_gen payload_gen;
    ]

let faults_gen =
  QCheck2.Gen.(
    oneofl [ None; Some "seed=3"; Some "seed=11,drop:ack_0:0.15,crash:2:300" ]
    |> map (Option.map (fun s -> Result.get_ok (Fault.of_string s))))

let log_gen =
  QCheck2.Gen.(
    map3
      (fun (recorder, base_steps) (failure, faults) entries ->
        Log.make ?faults ~recorder ~entries ~base_steps ~failure ())
      (pair payload_gen int_gen)
      (pair (opt failure_gen) faults_gen)
      (list_size (int_bound 8) entry_gen))

let prop_arbitrary =
  QCheck2.Test.make
    ~name:"arbitrary payloads: same bytes, same decode as the reference"
    ~count:60
    ~print:(fun (seed, log) ->
      Printf.sprintf "seed %d: %S" seed (Ref_codec.to_string log))
    QCheck2.Gen.(no_shrink (pair int log_gen))
    (fun (seed, log) -> law_holds ~flips:20 seed log)

(* -- fuzzed lines: a keyword and tokens built from number spellings,
   keywords and escape-heavy quoted strings (stray quotes, trailing
   backslashes, bad decimal and hex escapes, escaped CRs), framed with a
   valid CRC or not, under each magic: malformed tokens reach the entry
   decoder, the header parser and the trailer in both formats *)

let word_gen =
  QCheck2.Gen.oneofl
    [
      "0"; "-7"; "12"; "0x1f"; "1_0"; "+3"; "99999999999999999999";
      "-4611686018427387904"; "4611686018427387904"; "true"; "trte"; "false";
      "mem"; "msg"; "send"; "spawn"; "-"; "none"; "crash"; "spec"; "hang"; "u";
      "c"; "\\"; "x\r";
    ]

let quoted_gen =
  QCheck2.Gen.(
    map
      (fun parts -> "\"" ^ String.concat "" parts ^ "\"")
      (list_size (int_bound 4)
         (oneofl
            [
              "a"; " "; "7"; "\\\\"; "\\\""; "\\n"; "\\'"; "\\0"; "\\12";
              "\\123"; "\\999"; "\\255"; "\\256"; "\\x4"; "\\x4f"; "\\xZ";
              "\\\r"; "\\\rz"; "\\q"; "\""; "\\"; "\r"; "\xc3\xa9";
            ])))

let token_gen =
  QCheck2.Gen.(
    map2 ( ^ )
      (oneofl [ ""; ""; "i:"; "b:"; "s:" ])
      (map (String.concat "")
         (list_size (int_range 1 2) (oneof [ word_gen; quoted_gen ]))))

let line_gen =
  QCheck2.Gen.(
    map3
      (fun framed keyword args ->
        let body = String.concat " " (keyword :: args) in
        if framed then Log_io.crc_hex body ^ " " ^ body else body)
      bool
      (oneofl
         [
           "sched"; "input"; "readval"; "output"; "sync"; "cpsched"; "cpinput";
           "faildesc"; "flight"; "mark"; "govern"; "recorder"; "base-steps";
           "failure"; "faults"; "end"; "bogus"; "";
         ])
      (list_size (int_bound 5) token_gen))

let doc_gen =
  QCheck2.Gen.(
    map2
      (fun magic lines -> String.concat "\n" (magic :: lines))
      (oneofl [ "ddet-log v2"; "ddet-log v1"; "ddet-log v3" ])
      (list_size (int_range 0 6) line_gen))

let prop_fuzzed =
  QCheck2.Test.make ~name:"fuzzed lines decode as the reference decodes them"
    ~count:3000 ~print:(Printf.sprintf "%S") doc_gen agrees_both

(* A digit separator sends a negative int down the slow path, which
   reads the sign itself: the fast path's negation must not apply a
   second time. *)
let test_underscored_negative () =
  let entry = "sched -1_000 2" in
  let s =
    "ddet-log v2\nrecorder \"\"\nbase-steps 3\nfailure none\n"
    ^ Log_io.crc_hex entry ^ " " ^ entry ^ "\nend 1\n"
  in
  ignore (agrees_both s);
  match Log_io.of_string s with
  | Ok log ->
    Alcotest.(check bool)
      "tid -1000" true
      (log.Log.entries = [ Log.Sched { tid = -1000; sid = 2 } ])
  | Error e -> Alcotest.fail e

(* Documents at the edges of the line and field grammar, each decoded
   as the reference decodes it: the same log, damage record and error
   string, in both modes. The reference raises on none of them, so each
   comparison is exact. *)
let framed body = Ref_codec.crc_hex body ^ " " ^ body

let doc lines = String.concat "\n" lines

let head = [ "ddet-log v2"; "recorder \"r\""; "base-steps 3"; "failure none" ]

let boundary_docs =
  [
    (* CRLF line ends: the CR is part of each line, so a frame computed
       without it mismatches and one computed with it decodes "2\r" *)
    String.concat "\r\n" (head @ [ framed "sched 1 2"; "end 1"; "" ]);
    doc (head @ [ framed "sched 1 2\r"; "end 1"; "" ]);
    (* a last line without '\n': the trailer, then an entry *)
    doc (head @ [ framed "sched 1 2"; "end 1" ]);
    doc (head @ [ framed "sched 1 2" ]);
    (* blank lines of tabs, form feeds and CRs *)
    doc (head @ [ "\t\t"; "\012"; "\r"; " \t\012\r "; framed "sched 1 2"; "end 1"; "" ]);
    (* an unterminated quote at a line end and at the end of the file *)
    doc (head @ [ framed "mark \"abc"; "end 0"; "" ]);
    doc (head @ [ "end 0"; framed "mark \"abc" ]);
    doc [ "ddet-log v2"; "recorder \"r"; "end 0"; "" ];
    (* a backslash just before '\n' escapes nothing: the quote stays
       unterminated, and the next line's quotes are its own *)
    doc (head @ [ framed "mark \"ab\\"; "recorder \"r2\""; "end 0"; "" ]);
    doc (head @ [ framed "mark \"ab\\\\\""; "end 1"; "" ]);
    (* a 9-byte framed line: an empty body *)
    doc (head @ [ framed ""; "end 0"; "" ]);
    (* 8 hex digits with no space after them are no frame *)
    doc (head @ [ "0123abcd"; "0123abcdsched 1 2"; Ref_codec.crc_hex ""; "end 0"; "" ]);
    (* ints in every spelling int_of_string accepts, and 19 digits *)
    doc
      (head
      @ [
          framed "sched 0x1f 1_000"; framed "sched +5 -1_000";
          framed "sched 1234567890123456789 -4611686018427387904";
          framed "sched 9999999999999999999 0";
          framed "flight 0b101"; "end 5"; "";
        ]);
    doc [ "ddet-log v2"; "base-steps 0x1f"; "failure none"; "end +0"; "" ];
    doc [ "ddet-log v2"; "base-steps 1_0"; "end 0x"; "" ];
    (* two bad fields on one line: the rightmost is named *)
    doc
      (head
      @ [
          framed "readval 1 2 bad i:zz"; framed "readval x 2 bad i:3";
          framed "sync x 2 bogus c"; framed "govern x 1 noquote";
          framed "input x c q"; framed "cpinput 1 y c s:zz";
          framed "sched x y"; "end 0"; "";
        ]);
    doc [ "ddet-log v2"; "failure crash x noquote"; "end 0"; "" ];
    (* precedence: an unterminated quote outranks a wrong field count,
       which outranks a bad field *)
    doc
      (head
      @ [
          framed "sched x 2 3"; framed "readval 1 2 bad"; framed "sched 1 2 3 \"x";
          framed "sched x \"y"; "base-steps x y"; "recorder noquote \"z"; "end 0"; "";
        ]);
    (* extra fields after a valid entry or header line *)
    doc
      (head
      @ [
          framed "sched 1 2 3"; framed "mark \"a\" \"b\""; framed "flight 3 4";
          framed "sync 1 2 spawn - x"; "recorder \"a\" extra"; "end 1 2";
          "end 0"; "";
        ]);
    (* mark, govern and faildesc lines with escapes, good and bad *)
    doc
      (head
      @ [
          framed "mark \"a\\\"b\\\\c\\n\\t\\x41\\065\\r\"";
          framed "govern 7 2 \"r\\\\\\\"q\"";
          framed "faildesc crash 3 \"m\\x41\\\"\"";
          framed "faildesc spec \"t\\n\""; framed "faildesc hang";
          framed "mark \"\\q\""; framed "mark \"\\999\"";
          framed "govern 1 2 \"\\x4\""; framed "faildesc bogus 1";
          framed "faildesc crash 3 \"m\" extra"; framed "faildesc";
          framed "mark \"a\"b\"c\""; framed "mark x\"a b\"";
          "failure crash 3 \"a\\\"b\""; "end 5"; "";
        ]);
  ]

let test_boundary_docs () =
  List.iter
    (fun s ->
      List.iter
        (fun mode ->
          match Ref_codec.of_string_report ~mode s with
          | _ -> ignore (agrees mode s)
          | exception e ->
            Alcotest.failf "the reference raises %s on %S" (Printexc.to_string e) s)
        [ Log_io.Strict; Log_io.Salvage ])
    boundary_docs

(* ------------------------------------------------------------------ *)
(* one log, every layout *)

(* A recorded log comes back the same, header included, from a
   monolithic file, from segments of [seg] entries, and from shards
   over [k] nodes, loaded and stitched. *)
let prop_layouts =
  QCheck2.Test.make
    ~name:"monolithic, segmented and sharded layouts give back the same log"
    ~count:30
    ~print:(fun ((p, w, r), (seg, k, nseed)) ->
      Printf.sprintf
        "program %d, world %d, recorder %d; %d per segment, %d nodes (seed %d)"
        p w r seg k nseed)
    QCheck2.Gen.(
      no_shrink
        (pair
           (triple (int_range 1 5_000) (int_range 1 5_000) (int_bound 5))
           (triple (int_range 1 16) (int_range 1 3) int)))
    (fun (scenario, (seg, k, nseed)) ->
      let log = recorded scenario in
      let dir = fresh_dir () in
      let path = Filename.concat dir "r" in
      let same what (got : Log.t) =
        if got <> log then
          QCheck2.Test.fail_reportf "%s round trip differs:@ %S@ against@ %S"
            what (Log_io.to_string got) (Log_io.to_string log)
      in
      Log_io.save path log;
      (match Log_io.load path with
      | Ok got -> same "monolithic" got
      | Error e -> QCheck2.Test.fail_reportf "monolithic: %s" e);
      Log_segments.save ~segment_entries:seg path log;
      (match Log_segments.load path with
      | Ok (got, r) ->
        if not r.Log_segments.complete then
          QCheck2.Test.fail_report "segmented load incomplete";
        same "segmented" got
      | Error e -> QCheck2.Test.fail_reportf "segmented: %s" e);
      let nodes = List.filteri (fun i _ -> i < k) [ "n0"; "n1"; "n2" ] in
      let rand = Random.State.make [| nseed |] in
      let tids =
        List.sort_uniq compare
          (List.filter_map
             (function
               | Log.Sched { tid; _ }
               | Log.Input { tid; _ }
               | Log.Read_val { tid; _ }
               | Log.Sync { tid; _ }
               | Log.Cp_sched { tid; _ }
               | Log.Cp_input { tid; _ } ->
                 Some tid
               | _ -> None)
             log.Log.entries)
      in
      let causal =
        {
          Causal.nodes;
          tid_node =
            List.map
              (fun tid -> (tid, List.nth nodes (Random.State.int rand k)))
              tids;
          edges = [];
        }
      in
      let report =
        Sharded_log.save_via (Store.local ()) ~base:path ~causal log
      in
      if not (Sharded_log.save_ok report) then
        QCheck2.Test.fail_report "sharded save failed";
      (match Sharded_log.load path with
      | Ok loaded ->
        let stitched = (Stitch.stitch loaded).Stitch.log in
        if Log_io.to_string stitched <> Log_io.to_string log then
          QCheck2.Test.fail_reportf
            "sharded round trip differs:@ %S@ against@ %S"
            (Log_io.to_string stitched) (Log_io.to_string log)
      | Error e -> QCheck2.Test.fail_reportf "sharded: %s" e);
      remove_dir dir;
      true)

let () =
  Alcotest.run "codec"
    [
      ( "crc",
        [
          Alcotest.test_case "known answers" `Quick test_crc_known_answers;
          QCheck_alcotest.to_alcotest prop_crc_ranges;
        ] );
      ( "fixtures",
        [
          Alcotest.test_case "v2 log" `Quick test_log_fixture;
          Alcotest.test_case "segment set" `Quick test_segment_fixture;
          Alcotest.test_case "sharded recording" `Quick test_sharded_fixture;
          Alcotest.test_case "search checkpoint" `Quick test_checkpoint_fixture;
          Alcotest.test_case "input enumeration frontier" `Quick
            (test_engine_checkpoint Codec_fixtures.inputs_ckpt_file
               Codec_fixtures.inputs_search);
          Alcotest.test_case "dfs frontier" `Quick
            (test_engine_checkpoint Codec_fixtures.dfs_ckpt_file
               Codec_fixtures.dfs_search);
          Alcotest.test_case "pruned dfs frontier refused" `Quick
            test_pruned_checkpoint_refused;
        ] );
      ( "differential",
        List.map QCheck_alcotest.to_alcotest
          [ prop_recorded; prop_arbitrary; prop_fuzzed ]
        @ [
            Alcotest.test_case "underscored negative int" `Quick
              test_underscored_negative;
            Alcotest.test_case "boundary documents" `Quick test_boundary_docs;
          ] );
      ("layouts", [ QCheck_alcotest.to_alcotest prop_layouts ]);
    ]
