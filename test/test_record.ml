(* Unit tests for ddet_record: log queries, cost model, and the entry
   streams each recorder extracts from a run. *)

open Mvm
open Mvm.Dsl
open Ddet_record

let value_testable = Alcotest.testable Value.pp Value.equal

(* A small concurrent program exercising every event class: inputs,
   outputs, shared reads/writes, messages, locks, spawn. *)
let mixed_prog =
  program ~name:"mixed"
    ~regions:[ scalar "c" (Value.int 0) ]
    ~inputs:[ ("in0", [ Value.int 1; Value.int 2 ]) ]
    ~main:"main"
    [
      func "main" []
        [
          spawn "w" [];
          input "x" "in0";
          lock "m";
          assign "t" (g "c");
          store_g "c" (v "t" +: v "x");
          unlock "m";
          recv "d" "done";
          output "out" (g "c");
        ];
      func "w" []
        [
          lock "m";
          assign "t" (g "c");
          store_g "c" (v "t" +: i 10);
          unlock "m";
          send "done" (i 1);
        ];
    ]

let record_with recorder =
  Recorder.record recorder mixed_prog ~spec:Spec.accept_all
    ~world:(World.round_robin ())

(* ------------------------------------------------------------------ *)
(* Log structure per recorder *)

let test_full_records_schedule () =
  let result, log = record_with (Full_recorder.create ()) in
  Alcotest.(check (list (pair int int)))
    "schedule equals trace schedule"
    (Trace.sched_points result.Interp.trace)
    (Log.sched_points log);
  Alcotest.(check int) "one sched entry per step" result.Interp.steps
    (List.length (Log.sched_points log))

let test_full_records_inputs () =
  let _, log = record_with (Full_recorder.create ()) in
  Alcotest.(check (list value_testable)) "main's input logged" [ Value.int 1 ]
    (Log.inputs_for log 0)

let test_value_records_reads_and_recvs () =
  let result, log = record_with (Value_recorder.create ()) in
  let logged = List.map (fun (_, _, v) -> v) (Log.reads_for log 0) in
  let traced = Trace.reads_by result.Interp.trace 0 in
  (* thread 0's Read_val stream = its shared reads plus its one recv *)
  Alcotest.(check int) "read log covers reads + recv"
    (List.length traced + 1) (List.length logged)

let test_value_read_kinds () =
  let _, log = record_with (Value_recorder.create ()) in
  let kinds = List.map (fun (_, k, _) -> k) (Log.reads_for log 0) in
  Alcotest.(check bool) "contains a Msg entry (the recv)" true
    (List.exists (fun k -> k = Log.Msg) kinds);
  Alcotest.(check bool) "contains Mem entries" true
    (List.exists (fun k -> k = Log.Mem) kinds)

let test_output_records_outputs () =
  let result, log = record_with (Output_recorder.create ()) in
  Alcotest.(check bool) "logged outputs equal run outputs" true
    (Log.outputs log = result.Interp.outputs);
  Alcotest.(check int) "nothing else logged" 1 (Log.entry_count log)

let test_failure_records_nothing_on_success () =
  let _, log = record_with (Failure_recorder.create ()) in
  Alcotest.(check int) "empty log" 0 (Log.entry_count log)

let test_failure_records_descriptor () =
  let p =
    program ~name:"boom" ~regions:[] ~inputs:[] ~main:"main"
      [ func "main" [] [ fail "kaput" ] ]
  in
  let result, log =
    Recorder.record (Failure_recorder.create ()) p ~spec:Spec.accept_all
      ~world:(World.round_robin ())
  in
  (match Log.recorded_failure log with
  | Some f ->
    Alcotest.(check bool) "descriptor equals run failure" true
      (Some f = result.Interp.failure)
  | None -> Alcotest.fail "missing failure descriptor");
  Alcotest.(check int) "only the descriptor" 1 (Log.entry_count log)

let test_sync_ops () =
  let _, log = record_with (Sync_recorder.create ()) in
  let ops = List.map (fun (_, _, op) -> op) (Log.sync_entries log) in
  let has op = List.exists (fun o -> o = op) ops in
  Alcotest.(check bool) "spawn" true (has Log.Op_spawn);
  Alcotest.(check bool) "lock" true (has (Log.Op_lock "m"));
  Alcotest.(check bool) "unlock" true (has (Log.Op_unlock "m"));
  Alcotest.(check bool) "send" true (has (Log.Op_send "done"));
  Alcotest.(check bool) "recv" true (has (Log.Op_recv "done"))

let test_sync_records_inputs_and_outputs () =
  let _, log = record_with (Sync_recorder.create ()) in
  Alcotest.(check (list value_testable)) "inputs" [ Value.int 1 ]
    (Log.inputs_for log 0);
  Alcotest.(check bool) "outputs" true (Log.outputs log <> [])

(* ------------------------------------------------------------------ *)
(* RCSE recorder *)

let high_in fname =
  Fidelity_level.by_function ~name:"test" (fun f ->
      if String.equal f fname then Fidelity_level.High else Fidelity_level.Low)

let test_rcse_selects_by_function () =
  let result, log = record_with (Rcse_recorder.create (high_in "w")) in
  let cp = Log.cp_sched_points log in
  (* every recorded point belongs to thread 1 (the only "w" thread) *)
  Alcotest.(check bool) "only w's steps recorded" true
    (List.for_all (fun (tid, _) -> tid = 1) cp);
  let w_steps =
    Trace.count
      (fun (e : Event.t) ->
        e.Event.kind = Event.Step && String.equal e.Event.fname "w")
      result.Interp.trace
  in
  Alcotest.(check int) "all of w's steps recorded" w_steps (List.length cp)

let test_rcse_low_records_nothing () =
  let _, log = record_with (Rcse_recorder.create (Fidelity_level.always Fidelity_level.Low)) in
  Alcotest.(check int) "empty" 0 (Log.entry_count log)

let test_rcse_high_equals_full_schedule () =
  let result, log =
    record_with (Rcse_recorder.create (Fidelity_level.always Fidelity_level.High))
  in
  Alcotest.(check (list (pair int int)))
    "always-high records the full schedule"
    (Trace.sched_points result.Interp.trace)
    (Log.cp_sched_points log)

let test_rcse_marks_transitions () =
  let flip = ref false in
  let selector =
    {
      Fidelity_level.name = "flipper";
      level =
        (fun _ ->
          flip := not !flip;
          if !flip then Fidelity_level.High else Fidelity_level.Low);
    }
  in
  let _, log = record_with (Rcse_recorder.create selector) in
  let marks =
    List.filter (function Log.Mark _ -> true | _ -> false) log.Log.entries
  in
  Alcotest.(check bool) "transitions leave marks" true (List.length marks >= 2)

let test_rcse_cp_inputs_have_sites () =
  let _, log = record_with (Rcse_recorder.create (high_in "main")) in
  match Log.cp_inputs_for log 0 with
  | [ (sid, v) ] ->
    Alcotest.(check bool) "site is positive" true (sid > 0);
    Alcotest.check value_testable "input value" (Value.int 1) v
  | _ -> Alcotest.fail "expected exactly one cp input for main"

(* ------------------------------------------------------------------ *)
(* flight recorder *)

(* a selector that dials up when it sees the output event; fresh state per
   call, since selectors are stateful *)
let dial_on_output () =
  let tripped = ref false in
  {
    Fidelity_level.name = "on-output";
    level =
      (fun (e : Event.t) ->
        (match e.kind with Event.Out _ -> tripped := true | _ -> ());
        if !tripped then Fidelity_level.High else Fidelity_level.Low);
  }

let test_flight_flushes_on_dial_up () =
  let _, log = record_with (Rcse_recorder.create ~flight:100 (dial_on_output ())) in
  (* the input consumed long before the dial-up must be in the log *)
  match Log.cp_inputs_for log 0 with
  | [ (_, v) ] -> Alcotest.check value_testable "pre-trigger input flushed" (Value.int 1) v
  | _ -> Alcotest.fail "expected the flushed pre-trigger input"

let test_no_flight_loses_pre_trigger () =
  let _, log = record_with (Rcse_recorder.create (dial_on_output ())) in
  Alcotest.(check (list (pair int value_testable))) "no pre-trigger input" []
    (Log.cp_inputs_for log 0)

let test_flight_ring_bounded () =
  (* capacity 1: only the most recent data event survives *)
  let p =
    program ~name:"many-inputs" ~regions:[]
      ~inputs:[ ("c", [ Value.int 1; Value.int 2 ]) ]
      ~main:"main"
      [
        func "main" []
          [
            input "a" "c"; input "b" "c"; input "d" "c";
            output "out" (v "a");
          ];
      ]
  in
  let recorder = Rcse_recorder.create ~flight:1 (dial_on_output ()) in
  let _, log =
    Recorder.record recorder p ~spec:Spec.accept_all ~world:(World.round_robin ())
  in
  Alcotest.(check int) "only the last pre-trigger input survives" 1
    (List.length (Log.cp_inputs_for log 0))

let test_flight_note_and_tax () =
  let _, log = record_with (Rcse_recorder.create ~flight:100 (dial_on_output ())) in
  let note =
    List.find_opt (function Log.Flight_note _ -> true | _ -> false) log.Log.entries
  in
  (match note with
  | Some (Log.Flight_note { buffered }) ->
    Alcotest.(check bool) "events were buffered" true (buffered > 0)
  | _ -> Alcotest.fail "missing flight note");
  let no_ring_cost =
    Cost_model.recording_cost Cost_model.default
      (Log.make ~recorder:"t"
         ~entries:
           (List.filter
              (function Log.Flight_note _ -> false | _ -> true)
              log.Log.entries)
         ~base_steps:log.Log.base_steps ~failure:None ())
  in
  Alcotest.(check bool) "ring residency is taxed" true
    (Cost_model.recording_cost Cost_model.default log > no_ring_cost)

(* ------------------------------------------------------------------ *)
(* log serialization *)

let test_log_io_roundtrip () =
  let _, log = record_with (Full_recorder.create ()) in
  match Log_io.of_string (Log_io.to_string log) with
  | Ok log' ->
    Alcotest.(check bool) "entries preserved" true (log'.Log.entries = log.Log.entries);
    Alcotest.(check string) "recorder" log.Log.recorder log'.Log.recorder;
    Alcotest.(check int) "base steps" log.Log.base_steps log'.Log.base_steps;
    Alcotest.(check bool) "failure" true (log'.Log.failure = log.Log.failure)
  | Error e -> Alcotest.fail e

let test_log_io_roundtrip_every_recorder () =
  List.iter
    (fun make ->
      let _, log = record_with (make ()) in
      match Log_io.of_string (Log_io.to_string log) with
      | Ok log' ->
        Alcotest.(check bool) "roundtrip" true (log'.Log.entries = log.Log.entries)
      | Error e -> Alcotest.fail e)
    [
      Full_recorder.create; Value_recorder.create; Sync_recorder.create;
      Output_recorder.create; Failure_recorder.create;
      (fun () -> Rcse_recorder.create (Fidelity_level.always Fidelity_level.High));
    ]

let test_log_io_escapes () =
  let tricky = "line\nbreak \"quoted\" and \\backslash" in
  let entries =
    [
      Log.Input { tid = 0; chan = "c"; value = Value.str tricky };
      Log.Mark tricky;
      Log.Failure_desc (Mvm.Failure.Crash { sid = 3; msg = tricky });
    ]
  in
  let log = Log.make ~recorder:"esc" ~entries ~base_steps:1 ~failure:(Some Mvm.Failure.Hang) () in
  match Log_io.of_string (Log_io.to_string log) with
  | Ok log' -> Alcotest.(check bool) "tricky strings survive" true (log'.Log.entries = entries)
  | Error e -> Alcotest.fail e

let test_log_io_rejects_garbage () =
  (match Log_io.of_string "not a log" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted");
  match Log_io.of_string "ddet-log v1\nrecorder \"x\"\nbase-steps 1\nfailure none\nbogus entry" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bogus entry accepted"

let test_log_io_v2_canonical () =
  (* serialisation is canonical: parse + re-serialise is byte-for-byte *)
  let _, log = record_with (Full_recorder.create ()) in
  let s = Log_io.to_string log in
  match Log_io.of_string s with
  | Ok log' -> Alcotest.(check string) "byte-for-byte" s (Log_io.to_string log')
  | Error e -> Alcotest.fail e

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let flip_crc line =
  let b = Bytes.of_string line in
  Bytes.set b 0 (if Bytes.get b 0 = '0' then '1' else '0');
  Bytes.to_string b

(* index (0-based) of some entry line: skip magic + header keywords *)
let an_entry_index lines =
  let is_entry l =
    String.length l > 9 && l.[8] = ' '
    && String.for_all
         (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
         (String.sub l 0 8)
  in
  match List.find_index is_entry lines with
  | Some ix -> ix
  | None -> Alcotest.fail "no entry line found"

let test_log_io_strict_rejects_crc_mismatch () =
  let _, log = record_with (Full_recorder.create ()) in
  let lines = String.split_on_char '\n' (Log_io.to_string log) in
  let ix = an_entry_index lines in
  let damaged =
    String.concat "\n"
      (List.mapi (fun k l -> if k = ix then flip_crc l else l) lines)
  in
  match Log_io.of_string damaged with
  | Error msg ->
    Alcotest.(check bool) "names the 1-based line" true
      (contains msg (Printf.sprintf "line %d:" (ix + 1)));
    Alcotest.(check bool) "quotes the offending text" true
      (contains msg "crc mismatch")
  | Ok _ -> Alcotest.fail "CRC mismatch accepted in strict mode"

(* the retired unframed v1 format is a bad magic like any other: Strict
   names it, and Salvage invents no entry, since none of its lines is
   framed *)
let test_log_io_v1_refused () =
  let v1 =
    "ddet-log v1\nrecorder \"t\"\nbase-steps 1\nfailure none\nsched 0 1\n\
     input 1 c i:5\nmark \"m\"\n"
  in
  (match Log_io.of_string v1 with
  | Error msg ->
    Alcotest.(check bool) "names the bad magic" true
      (contains msg "bad magic: ddet-log v1")
  | Ok _ -> Alcotest.fail "a v1 log was accepted");
  match Log_io.of_string_report ~mode:Log_io.Salvage v1 with
  | Ok (log', damage) ->
    Alcotest.(check int) "no entry invented" 0 (List.length log'.Log.entries);
    Alcotest.(check bool) "flagged as damage" true (Log_io.is_damaged damage)
  | Error e -> Alcotest.fail e

let drop_trailer s =
  String.split_on_char '\n' s
  |> List.filter (fun l ->
         String.length l > 0 && not (String.length l > 4 && String.sub l 0 4 = "end "))
  |> String.concat "\n"

let test_log_io_trailer_guards_truncation () =
  let _, log = record_with (Full_recorder.create ()) in
  let headless = drop_trailer (Log_io.to_string log) in
  (match Log_io.of_string headless with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing trailer accepted in strict mode");
  match Log_io.of_string_report ~mode:Log_io.Salvage headless with
  | Ok (log', damage) ->
    Alcotest.(check bool) "salvage flags truncation" true damage.Log_io.truncated;
    Alcotest.(check bool) "entries still recovered" true
      (log'.Log.entries = log.Log.entries)
  | Error e -> Alcotest.fail e

let test_log_io_salvage_keeps_valid_prefix () =
  let _, log = record_with (Full_recorder.create ()) in
  let lines = String.split_on_char '\n' (Log_io.to_string log) in
  let ix = an_entry_index lines in
  let damaged =
    String.concat "\n"
      (List.mapi (fun k l -> if k = ix then "not a log line at all" else l) lines)
  in
  match Log_io.of_string_report ~mode:Log_io.Salvage damaged with
  | Ok (log', damage) ->
    Alcotest.(check int) "one entry lost" (List.length log.Log.entries - 1)
      (List.length log'.Log.entries);
    (match damage.Log_io.corrupt_lines with
    | [ (n, _, text) ] ->
      Alcotest.(check int) "damage names the line" (ix + 1) n;
      Alcotest.(check string) "damage quotes the text" "not a log line at all"
        text
    | _ -> Alcotest.fail "expected exactly one corrupt line");
    (* count mismatch vs the trailer is also reported *)
    Alcotest.(check bool) "count mismatch flagged" true damage.Log_io.truncated
  | Error e -> Alcotest.fail e

(* crash-safety of the on-disk format: whatever byte a crash cuts the
   file at, salvage recovers a valid prefix of the recording — it never
   invents entries and never raises *)
let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let test_log_io_salvage_every_truncation () =
  let _, log = record_with (Full_recorder.create ()) in
  let s = Log_io.to_string log in
  for n = 0 to String.length s do
    let cut = String.sub s 0 n in
    match Log_io.of_string_report ~mode:Log_io.Salvage cut with
    | Ok (log', damage) ->
      Alcotest.(check bool)
        (Printf.sprintf "prefix at byte %d" n)
        true
        (is_prefix log'.Log.entries log.Log.entries);
      (* anything short of a lossless recovery must be flagged; a cut
         that only loses trailing whitespace recovers everything and is
         legitimately clean *)
      if log'.Log.entries <> log.Log.entries then
        Alcotest.(check bool)
          (Printf.sprintf "loss flagged at byte %d" n)
          true
          (Log_io.is_damaged damage)
    | Error _ ->
      (* acceptable only while even the header is incomplete *)
      Alcotest.(check bool)
        (Printf.sprintf "hard error only before entries (byte %d)" n)
        true
        (n < String.length s)
  done

(* A [b:] value other than true/false is a malformed token like any
   other, even under a valid CRC: Strict names its line, Salvage skips
   it and reports it. *)
let bad_bool = "input 0 c b:trte"

(* [s] with its last entry line, the one at [ix], replaced *)
let with_bad_bool s =
  let lines = String.split_on_char '\n' s in
  let ix = List.length lines - 3 in
  let bad = Log_io.crc_hex bad_bool ^ " " ^ bad_bool in
  ( ix,
    String.concat "\n" (List.mapi (fun k l -> if k = ix then bad else l) lines)
  )

let bad_bool_log () =
  let _, log = record_with (Value_recorder.create ()) in
  (log, with_bad_bool (Log_io.to_string log))

let check_bad_bool_strict () =
  let _, (ix, s) = bad_bool_log () in
  match Log_io.of_string s with
  | Error msg ->
    Alcotest.(check bool) "names the 1-based line" true
      (contains msg (Printf.sprintf "line %d:" (ix + 1)));
    Alcotest.(check bool) "names the token" true (contains msg "b:trte")
  | Ok _ -> Alcotest.fail "a bad bool token was accepted"

let check_bad_bool_salvage () =
  let log, (ix, s) = bad_bool_log () in
  match Log_io.of_string_report ~mode:Log_io.Salvage s with
  | Ok (log', damage) ->
    Alcotest.(check int) "only the bad line is lost"
      (List.length log.Log.entries - 1)
      (List.length log'.Log.entries);
    (match damage.Log_io.corrupt_lines with
    | [ (n, _, text) ] ->
      Alcotest.(check int) "damage names the line" (ix + 1) n;
      Alcotest.(check bool) "damage quotes the text" true
        (contains text bad_bool)
    | _ -> Alcotest.fail "expected exactly one corrupt line")
  | Error e -> Alcotest.fail e

let test_log_io_file () =
  let _, log = record_with (Value_recorder.create ()) in
  let path = Stdlib.Filename.temp_file "ddet" ".log" in
  Log_io.save path log;
  (match Log_io.load path with
  | Ok log' -> Alcotest.(check bool) "file roundtrip" true (log'.Log.entries = log.Log.entries)
  | Error e -> Alcotest.fail e);
  Stdlib.Sys.remove path

(* a log that cannot be read is an Error with the OS reason, like one
   that does not parse *)
let test_log_io_unreadable () =
  let dir = Stdlib.Filename.temp_file "ddet" ".log" in
  Stdlib.Sys.remove dir;
  Stdlib.Sys.mkdir dir 0o755;
  List.iter
    (fun path ->
      match Log_io.load_report ~mode:Log_io.Salvage path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (path ^ ": loaded"))
    [ dir; Stdlib.Filename.concat dir "missing.log" ];
  Stdlib.Sys.rmdir dir

(* ------------------------------------------------------------------ *)
(* Segmented persistence (Log_segments) *)

let seg_base () =
  let base = Stdlib.Filename.temp_file "ddet_seg" "" in
  Stdlib.Sys.remove base;
  base

let seg_cleanup base =
  List.iter
    (fun suffix ->
      let p = base ^ suffix in
      if Stdlib.Sys.file_exists p then Stdlib.Sys.remove p)
    ([ ".header"; ".manifest" ] @ List.init 64 (Printf.sprintf ".%04d.seg"))

let test_segments_roundtrip () =
  let _, log = record_with (Full_recorder.create ()) in
  let base = seg_base () in
  Log_segments.save ~segment_entries:8 base log;
  Alcotest.(check bool) "exists sees the file set" true (Log_segments.exists base);
  (match Log_segments.load base with
  | Ok (log', r) ->
    Alcotest.(check bool) "complete" true r.Log_segments.complete;
    Alcotest.(check bool) "not damaged" false (Log_segments.is_damaged r);
    Alcotest.(check bool) "entries exact" true (log'.Log.entries = log.Log.entries);
    Alcotest.(check string) "recorder" log.Log.recorder log'.Log.recorder;
    Alcotest.(check int) "base steps" log.Log.base_steps log'.Log.base_steps;
    Alcotest.(check bool) "failure" true (log'.Log.failure = log.Log.failure)
  | Error e -> Alcotest.fail e);
  seg_cleanup base

let test_segments_crash_mid_record () =
  (* the store dies for good on the write of the segment holding entry
     k+1, tearing it inside that entry's line: no manifest, a torn tail
     — every complete line before the tear must still be recovered *)
  let _, log = record_with (Full_recorder.create ()) in
  let entries = log.Log.entries in
  let n = List.length entries in
  Alcotest.(check bool) "workload records enough entries" true (n >= 10);
  let base = seg_base () in
  let k = n - 2 in
  let torn = Printf.sprintf "%s.%04d.seg" base (k / 4) in
  let local = Store.local () in
  let fired = ref false in
  let write path bytes =
    if path <> torn then local.Store.write path bytes
    else begin
      fired := true;
      (* past the magic line and the segment's entries before entry
         k+1, then half of that entry's line *)
      let rec skip pos lines =
        if lines = 0 then pos
        else skip (String.index_from bytes pos '\n' + 1) (lines - 1)
      in
      let line = skip 0 (1 + (k mod 4)) in
      let cut = (line + String.index_from bytes line '\n') / 2 in
      ignore (local.Store.write path (String.sub bytes 0 cut));
      Error
        {
          Store.e_op = Store.Write;
          e_path = path;
          e_kind = Store.Eio "store died";
          transient = false;
        }
    end
  in
  (match
     Log_segments.save_via { local with Store.write } ~segment_entries:4 base
       log
   with
  | Error e ->
    Alcotest.(check bool) "the torn write happened" true !fired;
    Alcotest.(check bool) "the save dies on the write of entry k+1's segment"
      true
      (e.Store.e_op = Store.Write && e.Store.e_path = torn)
  | Ok () -> Alcotest.fail "the save outlived its store");
  (match Log_segments.load base with
  | Ok (log', r) ->
    Alcotest.(check bool) "damaged" true (Log_segments.is_damaged r);
    Alcotest.(check bool) "incomplete" false r.Log_segments.complete;
    Alcotest.(check int) "every complete line before the tear recovered" k
      r.Log_segments.entries;
    Alcotest.(check int) "sealed segments recovered whole" (k / 4)
      r.Log_segments.segments_complete;
    Alcotest.(check bool) "a prefix of the recording" true
      (is_prefix log'.Log.entries entries);
    Alcotest.(check int) "log carries the recovered entries" k
      (List.length log'.Log.entries);
    Alcotest.(check string) "recorder from the header file" log.Log.recorder
      log'.Log.recorder
  | Error e -> Alcotest.fail e);
  seg_cleanup base

let test_segments_missing_manifest () =
  (* crash in the gap between sealing the tail and writing the manifest:
     all segments are sealed, so recovery loses nothing but must still
     report the load as damaged (the header metadata is degraded) *)
  let _, log = record_with (Full_recorder.create ()) in
  let base = seg_base () in
  Log_segments.save ~segment_entries:8 base log;
  Stdlib.Sys.remove (base ^ ".manifest");
  (match Log_segments.load base with
  | Ok (log', r) ->
    Alcotest.(check bool) "damaged without the manifest" true
      (Log_segments.is_damaged r);
    Alcotest.(check int) "no entry lost" (List.length log.Log.entries)
      (List.length log'.Log.entries);
    Alcotest.(check bool) "entries exact" true
      (log'.Log.entries = log.Log.entries)
  | Error e -> Alcotest.fail e);
  seg_cleanup base

let test_segments_corrupt_segment_detected () =
  (* bit rot inside a sealed segment: the manifest's whole-file CRC must
     catch it and recovery must stop at the damaged segment rather than
     trust anything after it *)
  let _, log = record_with (Full_recorder.create ()) in
  let base = seg_base () in
  Log_segments.save ~segment_entries:4 base log;
  let seg0 = base ^ ".0000.seg" in
  let s = In_channel.with_open_bin seg0 In_channel.input_all in
  let b = Bytes.of_string s in
  let flip_at = String.index s '\n' + 1 in
  Bytes.set b flip_at (if Bytes.get b flip_at = 'f' then '0' else 'f');
  Out_channel.with_open_bin seg0 (fun oc -> Out_channel.output_bytes oc b);
  (match Log_segments.load base with
  | Ok (log', r) ->
    Alcotest.(check bool) "damaged" true (Log_segments.is_damaged r);
    Alcotest.(check int) "nothing past the damaged segment is trusted" 0
      r.Log_segments.segments_complete;
    Alcotest.(check bool) "fewer entries than the recording" true
      (List.length log'.Log.entries < List.length log.Log.entries);
    Alcotest.(check bool) "still a valid prefix" true
      (is_prefix log'.Log.entries log.Log.entries)
  | Error e -> Alcotest.fail e);
  seg_cleanup base

let test_segments_unreadable_segment () =
  (* a segment that cannot be read ends the recovery walk as a deleted
     one does: the sealed segments before it, flagged as damaged *)
  let _, log = record_with (Full_recorder.create ()) in
  let base = seg_base () in
  Log_segments.save ~segment_entries:4 base log;
  let seg1 = base ^ ".0001.seg" in
  Stdlib.Sys.remove seg1;
  Stdlib.Sys.mkdir seg1 0o755;
  (match Log_segments.load base with
  | Ok (log', r) ->
    Alcotest.(check bool) "damaged" true (Log_segments.is_damaged r);
    Alcotest.(check int) "the walk ends at the unreadable segment" 1
      r.Log_segments.segments_complete;
    Alcotest.(check bool) "the first segment's entries" true
      (log'.Log.entries = List.filteri (fun i _ -> i < 4) log.Log.entries)
  | Error e -> Alcotest.fail e);
  Stdlib.Sys.rmdir seg1;
  seg_cleanup base

let test_segments_nothing_there () =
  let base = seg_base () in
  Alcotest.(check bool) "exists is false" false (Log_segments.exists base);
  match Log_segments.load base with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load invented a recording from nothing"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* every-byte truncation of the manifest: the [end N] trailer must catch
   any cut, recovery must fall back to the sealed-segment scan and lose
   nothing — but any cut that degrades the manifest must be flagged *)
let test_segments_manifest_every_truncation () =
  let _, log = record_with (Full_recorder.create ()) in
  let base = seg_base () in
  Log_segments.save ~segment_entries:4 base log;
  let manifest = read_file (base ^ ".manifest") in
  for n = 0 to String.length manifest do
    write_file (base ^ ".manifest") (String.sub manifest 0 n);
    match Log_segments.load base with
    | Ok (log', r) ->
      Alcotest.(check bool)
        (Printf.sprintf "all sealed entries recovered at byte %d" n)
        true
        (log'.Log.entries = log.Log.entries);
      if not r.Log_segments.complete then
        Alcotest.(check bool)
          (Printf.sprintf "degraded manifest flagged at byte %d" n)
          true
          (Log_segments.is_damaged r)
    | Error e -> Alcotest.fail (Printf.sprintf "byte %d: %s" n e)
  done;
  seg_cleanup base

(* every-byte truncation of the header with no manifest (the worst crash
   window): the sealed segments alone must still yield every entry, with
   the load flagged as damaged; a torn header degrades metadata only *)
let test_segments_header_every_truncation () =
  let _, log = record_with (Full_recorder.create ()) in
  let base = seg_base () in
  Log_segments.save ~segment_entries:4 base log;
  Stdlib.Sys.remove (base ^ ".manifest");
  let header = read_file (base ^ ".header") in
  for n = 0 to String.length header do
    write_file (base ^ ".header") (String.sub header 0 n);
    match Log_segments.load base with
    | Ok (log', r) ->
      Alcotest.(check bool)
        (Printf.sprintf "all sealed entries recovered at byte %d" n)
        true
        (log'.Log.entries = log.Log.entries);
      Alcotest.(check bool)
        (Printf.sprintf "manifest-less load flagged at byte %d" n)
        true
        (Log_segments.is_damaged r)
    | Error e -> Alcotest.fail (Printf.sprintf "byte %d: %s" n e)
  done;
  seg_cleanup base

(* every-byte truncation of a MIDDLE segment with no manifest: the torn
   segment is unsealed, so recovery must stop there — its valid entry
   prefix at most, and never an entry from the sealed segments after it
   (the writer is sequential; nothing past a tear can be trusted) *)
let test_segments_unsealed_every_truncation () =
  let _, log = record_with (Full_recorder.create ()) in
  let base = seg_base () in
  Log_segments.save ~segment_entries:4 base log;
  Stdlib.Sys.remove (base ^ ".manifest");
  let torn = base ^ ".0001.seg" in
  Alcotest.(check bool) "workload spans several segments" true
    (Stdlib.Sys.file_exists (base ^ ".0002.seg"));
  let seg = read_file torn in
  for n = 0 to String.length seg - 1 do
    write_file torn (String.sub seg 0 n);
    match Log_segments.load base with
    | Ok (log', r) ->
      let got = List.length log'.Log.entries in
      Alcotest.(check bool)
        (Printf.sprintf "a prefix of the recording at byte %d" n)
        true
        (is_prefix log'.Log.entries log.Log.entries);
      (* a cut that only sheds trailing whitespace leaves the segment
         sealed and recovery lossless; any cut that actually tears it
         must stop the walk there — sealed segments after the tear are
         not this recording's suffix any more *)
      Alcotest.(check bool)
        (Printf.sprintf "nothing recovered past the tear at byte %d" n)
        true
        (got <= 4 + 4 || log'.Log.entries = log.Log.entries);
      Alcotest.(check bool)
        (Printf.sprintf "tear flagged at byte %d" n)
        true
        (Log_segments.is_damaged r)
    | Error e -> Alcotest.fail (Printf.sprintf "byte %d: %s" n e)
  done;
  seg_cleanup base

(* ------------------------------------------------------------------ *)
(* Fidelity_level combinators *)

let ev fname =
  { Event.step = 0; tid = 0; sid = 1; fname; kind = Event.Step }

let test_any_combinator () =
  let s =
    Fidelity_level.any [ high_in "a"; high_in "b" ]
  in
  Alcotest.(check bool) "a is high" true
    (Fidelity_level.equal (s.Fidelity_level.level (ev "a")) Fidelity_level.High);
  Alcotest.(check bool) "b is high" true
    (Fidelity_level.equal (s.Fidelity_level.level (ev "b")) Fidelity_level.High);
  Alcotest.(check bool) "c is low" true
    (Fidelity_level.equal (s.Fidelity_level.level (ev "c")) Fidelity_level.Low)

let test_any_evaluates_all () =
  (* stateful constituents must see every event even when another
     constituent already answered High *)
  let calls = ref 0 in
  let counting =
    {
      Fidelity_level.name = "counting";
      level = (fun _ -> incr calls; Fidelity_level.Low);
    }
  in
  let s = Fidelity_level.any [ Fidelity_level.always Fidelity_level.High; counting ] in
  ignore (s.Fidelity_level.level (ev "x"));
  ignore (s.Fidelity_level.level (ev "y"));
  Alcotest.(check int) "both events seen" 2 !calls

(* ------------------------------------------------------------------ *)
(* Cost model *)

let cm = Cost_model.default

let test_cost_sched_expensive () =
  Alcotest.(check bool) "sched > sync" true
    (Cost_model.entry_cost cm (Log.Sched { tid = 0; sid = 1 })
    > Cost_model.entry_cost cm (Log.Sync { tid = 0; sid = 1; op = Log.Op_spawn }))

let test_cost_scales_with_bytes () =
  let entry s = Log.Read_val { tid = 0; sid = 1; kind = Log.Mem; value = Value.str s } in
  Alcotest.(check bool) "long string costs more" true
    (Cost_model.entry_cost cm (entry (String.make 100 'x'))
    > Cost_model.entry_cost cm (entry "x"))

let test_cost_failure_free () =
  Alcotest.(check (float 1e-9)) "failure descriptor is free" 0.0
    (Cost_model.entry_cost cm (Log.Failure_desc Mvm.Failure.Hang))

let test_cost_mark_free () =
  Alcotest.(check (float 1e-9)) "marks are free" 0.0
    (Cost_model.entry_cost cm (Log.Mark "x"))

let test_overhead_at_least_one () =
  let log = Log.make ~recorder:"t" ~entries:[] ~base_steps:100 ~failure:None () in
  Alcotest.(check (float 1e-9)) "empty log overhead 1.0" 1.0
    (Cost_model.overhead cm log)

let test_overhead_monotone_in_entries () =
  let mk entries = Log.make ~recorder:"t" ~entries ~base_steps:100 ~failure:None () in
  let e = Log.Sched { tid = 0; sid = 1 } in
  Alcotest.(check bool) "more entries, more overhead" true
    (Cost_model.overhead cm (mk [ e; e ]) > Cost_model.overhead cm (mk [ e ]))

let test_recording_cost_additive () =
  let e1 = Log.Sched { tid = 0; sid = 1 } in
  let e2 = Log.Input { tid = 0; chan = "c"; value = Value.int 1 } in
  let mk entries = Log.make ~recorder:"t" ~entries ~base_steps:1 ~failure:None () in
  Alcotest.(check (float 1e-9)) "cost adds up"
    (Cost_model.recording_cost cm (mk [ e1 ]) +. Cost_model.recording_cost cm (mk [ e2 ]))
    (Cost_model.recording_cost cm (mk [ e1; e2 ]))

(* ------------------------------------------------------------------ *)
(* Log accessors *)

let test_payload_bytes () =
  let entries =
    [
      Log.Input { tid = 0; chan = "c"; value = Value.str "abcd" };
      Log.Read_val { tid = 0; sid = 1; kind = Log.Mem; value = Value.int 5 };
      Log.Sched { tid = 0; sid = 1 };
    ]
  in
  let log = Log.make ~recorder:"t" ~entries ~base_steps:1 ~failure:None () in
  Alcotest.(check int) "4 string bytes + 8 int bytes" 12 (Log.payload_bytes log)

let test_entry_count_skips_marks () =
  let entries = [ Log.Mark "a"; Log.Sched { tid = 0; sid = 1 }; Log.Mark "b" ] in
  let log = Log.make ~recorder:"t" ~entries ~base_steps:1 ~failure:None () in
  Alcotest.(check int) "marks not counted" 1 (Log.entry_count log)

let test_inputs_per_thread_separated () =
  let entries =
    [
      Log.Input { tid = 0; chan = "c"; value = Value.int 1 };
      Log.Input { tid = 1; chan = "c"; value = Value.int 2 };
      Log.Input { tid = 0; chan = "c"; value = Value.int 3 };
    ]
  in
  let log = Log.make ~recorder:"t" ~entries ~base_steps:1 ~failure:None () in
  Alcotest.(check (list value_testable)) "tid 0" [ Value.int 1; Value.int 3 ]
    (Log.inputs_for log 0);
  Alcotest.(check (list value_testable)) "tid 1" [ Value.int 2 ]
    (Log.inputs_for log 1)

let () =
  Alcotest.run "record"
    [
      ( "recorders",
        [
          Alcotest.test_case "full: schedule" `Quick test_full_records_schedule;
          Alcotest.test_case "full: inputs" `Quick test_full_records_inputs;
          Alcotest.test_case "value: reads+recvs" `Quick test_value_records_reads_and_recvs;
          Alcotest.test_case "value: kinds" `Quick test_value_read_kinds;
          Alcotest.test_case "output: outputs only" `Quick test_output_records_outputs;
          Alcotest.test_case "failure: empty on success" `Quick test_failure_records_nothing_on_success;
          Alcotest.test_case "failure: descriptor" `Quick test_failure_records_descriptor;
          Alcotest.test_case "sync: op coverage" `Quick test_sync_ops;
          Alcotest.test_case "sync: inputs/outputs" `Quick test_sync_records_inputs_and_outputs;
        ] );
      ( "rcse",
        [
          Alcotest.test_case "selects by function" `Quick test_rcse_selects_by_function;
          Alcotest.test_case "low records nothing" `Quick test_rcse_low_records_nothing;
          Alcotest.test_case "high equals full" `Quick test_rcse_high_equals_full_schedule;
          Alcotest.test_case "marks transitions" `Quick test_rcse_marks_transitions;
          Alcotest.test_case "cp inputs carry sites" `Quick test_rcse_cp_inputs_have_sites;
        ] );
      ( "flight",
        [
          Alcotest.test_case "flush on dial-up" `Quick test_flight_flushes_on_dial_up;
          Alcotest.test_case "no ring loses history" `Quick test_no_flight_loses_pre_trigger;
          Alcotest.test_case "ring bounded" `Quick test_flight_ring_bounded;
          Alcotest.test_case "note and tax" `Quick test_flight_note_and_tax;
        ] );
      ( "log-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_log_io_roundtrip;
          Alcotest.test_case "every recorder" `Quick test_log_io_roundtrip_every_recorder;
          Alcotest.test_case "escapes" `Quick test_log_io_escapes;
          Alcotest.test_case "rejects garbage" `Quick test_log_io_rejects_garbage;
          Alcotest.test_case "v2 canonical" `Quick test_log_io_v2_canonical;
          Alcotest.test_case "strict rejects crc mismatch" `Quick
            test_log_io_strict_rejects_crc_mismatch;
          Alcotest.test_case "v1 is refused" `Quick test_log_io_v1_refused;
          Alcotest.test_case "trailer guards truncation" `Quick
            test_log_io_trailer_guards_truncation;
          Alcotest.test_case "salvage keeps valid prefix" `Quick
            test_log_io_salvage_keeps_valid_prefix;
          Alcotest.test_case "salvage at every truncation point" `Quick
            test_log_io_salvage_every_truncation;
          Alcotest.test_case "v2 bad bool, strict" `Quick check_bad_bool_strict;
          Alcotest.test_case "v2 bad bool, salvage" `Quick
            check_bad_bool_salvage;
          Alcotest.test_case "file save/load" `Quick test_log_io_file;
          Alcotest.test_case "unreadable file is an error" `Quick
            test_log_io_unreadable;
        ] );
      ( "segments",
        [
          Alcotest.test_case "roundtrip" `Quick test_segments_roundtrip;
          Alcotest.test_case "crash mid-record" `Quick
            test_segments_crash_mid_record;
          Alcotest.test_case "missing manifest" `Quick
            test_segments_missing_manifest;
          Alcotest.test_case "corrupt segment detected" `Quick
            test_segments_corrupt_segment_detected;
          Alcotest.test_case "nothing there" `Quick test_segments_nothing_there;
          Alcotest.test_case "manifest survives every truncation" `Quick
            test_segments_manifest_every_truncation;
          Alcotest.test_case "header survives every truncation" `Quick
            test_segments_header_every_truncation;
          Alcotest.test_case "unsealed segment never leaks entries" `Quick
            test_segments_unsealed_every_truncation;
          Alcotest.test_case "unreadable segment ends the walk" `Quick
            test_segments_unreadable_segment;
        ] );
      ( "fidelity-level",
        [
          Alcotest.test_case "any combinator" `Quick test_any_combinator;
          Alcotest.test_case "any evaluates all" `Quick test_any_evaluates_all;
        ] );
      ( "cost-model",
        [
          Alcotest.test_case "sched expensive" `Quick test_cost_sched_expensive;
          Alcotest.test_case "byte scaling" `Quick test_cost_scales_with_bytes;
          Alcotest.test_case "failure free" `Quick test_cost_failure_free;
          Alcotest.test_case "mark free" `Quick test_cost_mark_free;
          Alcotest.test_case "overhead >= 1" `Quick test_overhead_at_least_one;
          Alcotest.test_case "overhead monotone" `Quick test_overhead_monotone_in_entries;
          Alcotest.test_case "cost additive" `Quick test_recording_cost_additive;
        ] );
      ( "log",
        [
          Alcotest.test_case "payload bytes" `Quick test_payload_bytes;
          Alcotest.test_case "marks uncounted" `Quick test_entry_count_skips_marks;
          Alcotest.test_case "per-thread inputs" `Quick test_inputs_per_thread_separated;
        ] );
    ]
