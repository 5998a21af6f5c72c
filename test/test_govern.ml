(* Hostile-I/O and overhead-governor tests.

   Three layers:
   - the storage stack (Store / Faulty_store / Retry): typed errors,
     deterministic injection, transient absorption;
   - the storage-fault law (qcheck): ANY fault plan applied to a save
     either succeeds with a byte-exact round-trip or fails with a typed
     permanent error leaving a salvageable prefix (segmented) or no file
     at all (monolithic) — never an exception, never silent corruption;
   - durability: every file a save writes is fsynced before the save
     renames it or returns, in every layout;
   - the governor: ladder semantics, trigger boost, and the end-to-end
     acceptance run — a 1.3x budget on miniht keeps the measured
     overhead within budget while the original failure still reproduces
     from the governed log, with the honest DF floor reported. *)

open Ddet
open Ddet_record
open Ddet_apps

let budget_13 = 1.3

(* ------------------------------------------------------------------ *)
(* helpers *)

let seg_base () =
  let base = Stdlib.Filename.temp_file "ddet_gov" "" in
  Stdlib.Sys.remove base;
  base

let seg_cleanup base =
  List.iter
    (fun suffix ->
      let p = base ^ suffix in
      if Stdlib.Sys.file_exists p then Stdlib.Sys.remove p)
    ([ ".header"; ".manifest"; ""; ".log"; ".log.tmp" ]
    @ List.init 128 (Printf.sprintf ".%04d.seg"))

let rec is_prefix a b =
  match (a, b) with
  | [], _ -> true
  | x :: xs, y :: ys -> x = y && is_prefix xs ys
  | _ :: _, [] -> false

let miniht = Miniht.app ()

(* miniht seed 1 fails with missing-rows (the seed scan's first hit) *)
let failing_seed = 1

let record_miniht ?overhead_budget model =
  let config = { Config.default with Config.overhead_budget } in
  let prepared = Session.prepare ~config model miniht in
  let original, log = Session.record prepared ~seed:failing_seed in
  (prepared, original, log)

(* ------------------------------------------------------------------ *)
(* retry policy *)

let flaky_error transient =
  {
    Store.e_op = Store.Write;
    e_path = "x";
    e_kind = Store.Eio "blip";
    transient;
  }

let test_retry_absorbs_transient () =
  let calls = ref 0 in
  let f () =
    incr calls;
    if !calls < 3 then Error (flaky_error true) else Ok !calls
  in
  match Retry.run f with
  | Ok 3 -> ()
  | Ok n -> Alcotest.fail (Printf.sprintf "wrong attempt count %d" n)
  | Error f -> Alcotest.fail (Retry.failure_to_string f)

let test_retry_permanent_is_immediate () =
  let calls = ref 0 in
  let f () =
    incr calls;
    Error (flaky_error false)
  in
  (match Retry.run f with
  | Ok _ -> Alcotest.fail "permanent error succeeded"
  | Error f ->
    Alcotest.(check int) "one attempt only" 1 f.Retry.attempts;
    Alcotest.(check bool) "not a give-up" false f.Retry.gave_up);
  Alcotest.(check int) "no retries issued" 1 !calls

let test_retry_gives_up () =
  let f () = Error (flaky_error true) in
  match Retry.run f with
  | Ok _ -> Alcotest.fail "endless transience succeeded"
  | Error f ->
    Alcotest.(check int) "first + 3 retries" 4 f.Retry.attempts;
    Alcotest.(check bool) "marked as give-up" true f.Retry.gave_up;
    Alcotest.(check bool) "surfaces as permanent" false
      (Retry.as_store_error f).Store.transient

(* ------------------------------------------------------------------ *)
(* faulty store determinism *)

let test_faulty_plan_roundtrip () =
  let plan =
    Faulty_store.make ~seed:9
      [
        Faulty_store.Disk_full { after_bytes = 4096 };
        Faulty_store.Torn { at_op = 3; keep = 0.5 };
        Faulty_store.Fsync_fail { at_op = 2; transient = true };
        Faulty_store.Flaky { prob = 0.1 };
        Faulty_store.Slow { from_op = 10; until_op = 20; ms = 5. };
      ]
  in
  match Faulty_store.of_string (Faulty_store.to_string plan) with
  | Ok p -> Alcotest.(check bool) "roundtrip" true (p = plan)
  | Error e -> Alcotest.fail e

let test_faulty_injection_deterministic () =
  let _, _, log = record_miniht Model.Perfect in
  let run () =
    let base = seg_base () in
    let plan = Faulty_store.make ~seed:5 [ Faulty_store.Flaky { prob = 0.4 } ] in
    let store, stats = Faulty_store.wrap plan (Store.local ()) in
    let r = Log_segments.save_via store ~segment_entries:8 base log in
    let s = stats () in
    seg_cleanup base;
    (* the temp path differs between runs, so compare the error minus
       its path — the injection decisions must be identical *)
    let r =
      Result.map_error
        (fun e -> (e.Store.e_op, e.Store.e_kind, e.Store.transient))
        r
    in
    (r, s.Faulty_store.injected, s.Faulty_store.bytes_written)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same plan, same outcome" true (a = b)

(* ------------------------------------------------------------------ *)
(* the storage-fault law (qcheck) *)

let fault_gen =
  QCheck2.Gen.(
    oneof
      [
        map (fun b -> Faulty_store.Disk_full { after_bytes = 256 + b })
          (int_bound 8192);
        map2
          (fun op keep -> Faulty_store.Torn { at_op = op; keep })
          (int_bound 40) (float_bound_inclusive 1.0);
        map2
          (fun op transient -> Faulty_store.Fsync_fail { at_op = op; transient })
          (int_bound 40) bool;
        map2
          (fun op transient ->
            Faulty_store.Rename_fail { at_op = op; transient })
          (int_bound 40) bool;
        map (fun p -> Faulty_store.Flaky { prob = p *. 0.4 })
          (float_bound_inclusive 1.0);
      ])

let plan_gen =
  QCheck2.Gen.(
    map2
      (fun seed faults -> Faulty_store.make ~seed faults)
      (int_bound 1000)
      (list_size (int_range 0 3) fault_gen))

(* the store every save below goes through: [plan]'s faults, with
   bounded retry absorbing the transient ones *)
let hostile plan = Retry.store (fst (Faulty_store.wrap plan (Store.local ())))

(* Any fault plan, any retry outcome: the save either round-trips
   exactly, or fails with a typed PERMANENT error while the disk holds a
   salvageable prefix flagged as damaged (segmented) or nothing at all
   (monolithic: the atomic write leaves the whole log or no file). No
   exceptions, no silent corruption, no phantom entries. *)
let storage_fault_law =
  let _, _, log = record_miniht Model.Perfect in
  QCheck2.Test.make ~name:"storage-fault law: salvageable or typed failure"
    ~count:120 plan_gen (fun plan ->
      let base = seg_base () in
      let saved =
        Log_segments.save_via (hostile plan) ~segment_entries:8 base log
      in
      let segmented =
        match saved with
        | Ok () -> (
          match Log_segments.load base with
          | Ok (log', r) ->
            log'.Log.entries = log.Log.entries
            && r.Log_segments.complete
            && not (Log_segments.is_damaged r)
          | Error _ -> false)
        | Error e -> (
          (not e.Store.transient)
          &&
          match Log_segments.load base with
          | Ok (log', r) ->
            is_prefix log'.Log.entries log.Log.entries
            && Log_segments.is_damaged r
          | Error _ ->
            (* nothing persisted at all: legal only when the very first
               write (the header) failed *)
            not (Log_segments.exists base))
      in
      let path = base ^ ".log" in
      let monolithic =
        match Log_io.save_via (hostile plan) path log with
        | Ok () -> Log_io.load path = Ok log
        | Error e ->
          (not e.Store.transient)
          && (not (Sys.file_exists path))
          && not (Sys.file_exists (path ^ ".tmp"))
      in
      seg_cleanup base;
      segmented && monolithic)

(* op 1 of a monolithic save is the temp file's fsync: the fault must
   fail the save with nothing left behind *)
let test_fsyncfail_monolithic () =
  let _, _, log = record_miniht Model.Perfect in
  let path = seg_base () ^ ".log" in
  let plan =
    match Faulty_store.of_string "fsyncfail:1" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let faulty, stats = Faulty_store.wrap plan (Store.local ()) in
  (match Log_io.save_via (Retry.store faulty) path log with
  | Ok () -> Alcotest.fail "the save outlived its fsync fault"
  | Error e ->
    Alcotest.(check bool) "a permanent fsync error on the temp file" true
      (e.Store.e_op = Store.Fsync
      && e.Store.e_path = path ^ ".tmp"
      && not e.Store.transient));
  Alcotest.(check int) "the fault fired once" 1 (stats ()).Faulty_store.injected;
  Alcotest.(check bool) "no target" false (Sys.file_exists path);
  Alcotest.(check bool) "no temp file" false (Sys.file_exists (path ^ ".tmp"))

(* op 1 of a monolithic save is an fsync, so a tear indexed there never
   fires: the save succeeds and the stats name the clause instead of the
   plan weakening without a word *)
let test_torn_on_fsync_never_fires () =
  let _, _, log = record_miniht Model.Perfect in
  let path = seg_base () ^ ".log" in
  let plan =
    match Faulty_store.of_string "torn:1:0.5" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let faulty, stats = Faulty_store.wrap plan (Store.local ()) in
  (match Log_io.save_via faulty path log with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "a tear on an fsync failed the save");
  Sys.remove path;
  let s = stats () in
  Alcotest.(check int) "nothing injected" 0 s.Faulty_store.injected;
  Alcotest.(check bool) "the clause never fired" true
    (s.Faulty_store.never_fired = plan.Faulty_store.faults)

(* ------------------------------------------------------------------ *)
(* durability *)

(* a write whose bytes never reach the disk is an error, not [Ok]: the
   local store must not lose the failure of its last flush *)
let test_local_write_reports_full_disk () =
  if Sys.file_exists "/dev/full" then
    match (Store.local ()).Store.write "/dev/full" "evidence" with
    | Ok () -> Alcotest.fail "a write to a full device succeeded"
    | Error e ->
      Alcotest.(check bool) "a permanent write error" true
        (e.Store.e_op = Store.Write && not e.Store.transient)

type step = W of string | F of string | R of string * string

(* the local store, noting every write, fsync and rename in order *)
let noting () =
  let local = Store.local () in
  let steps = ref [] in
  let note s = steps := s :: !steps in
  ( {
      local with
      Store.write =
        (fun p b ->
          note (W p);
          local.Store.write p b);
      fsync =
        (fun p ->
          note (F p);
          local.Store.fsync p);
      rename =
        (fun src dst ->
          note (R (src, dst));
          local.Store.rename src dst);
    },
    fun () -> List.rev !steps )

(* every written path is fsynced after its last write, and before a
   rename moves it *)
let rec durable = function
  | [] -> true
  | W p :: rest ->
    let rec synced = function
      | F q :: _ when q = p -> true
      | (W q | R (q, _)) :: _ when q = p -> false
      | _ :: rest -> synced rest
      | [] -> false
    in
    synced rest && durable rest
  | _ :: rest -> durable rest

let test_every_layout_durable () =
  let _, _, log = record_miniht Model.Perfect in
  let check_save layout expected save =
    let store, steps = noting () in
    save store;
    let steps = steps () in
    Alcotest.(check (list string))
      (layout ^ ": the files written") expected
      (List.filter_map (function W p -> Some p | _ -> None) steps);
    Alcotest.(check bool)
      (layout ^ ": each fsynced before its rename or the return")
      true (durable steps)
  in
  let base = seg_base () in
  check_save "monolithic" [ base ^ ".log.tmp" ] (fun store ->
      Result.get_ok (Log_io.save_via store (base ^ ".log") log));
  let n_segs = (List.length log.Log.entries + 7) / 8 in
  check_save "segmented"
    ((base ^ ".header.tmp")
     :: List.init n_segs (Printf.sprintf "%s.%04d.seg" base)
    @ [ base ^ ".manifest.tmp" ])
    (fun store ->
      Result.get_ok (Log_segments.save_via store ~segment_entries:8 base log));
  seg_cleanup base;
  let prepared = Session.prepare Model.Perfect (Msg_server.app ()) in
  let _, log, causal = Session.record_dist prepared ~seed:1 in
  let shards =
    List.map (Printf.sprintf "%s.%s.shard" base) [ "server"; "p0"; "p1" ]
  in
  check_save "sharded" (shards @ [ base ^ ".causal.tmp" ]) (fun store ->
      Alcotest.(check bool) "sharded save ok" true
        (Sharded_log.save_ok (Sharded_log.save_via store ~base ~causal log)));
  List.iter Sys.remove ((base ^ ".causal") :: shards)

(* ------------------------------------------------------------------ *)
(* governor unit semantics *)

let mk_entry_value () =
  Log.Read_val { tid = 0; sid = 1; kind = Log.Mem; value = Mvm.Value.int 1 }

let test_ladder_admits () =
  let sched = Log.Sched { tid = 0; sid = 1 } in
  let value = mk_entry_value () in
  let fd = Log.Failure_desc (Mvm.Failure.Crash { sid = 1; msg = "boom" }) in
  Alcotest.(check bool) "level 0 admits sched" true (Governor.admits 0 sched);
  Alcotest.(check bool) "level 1 drops sched" false (Governor.admits 1 sched);
  Alcotest.(check bool) "level 1 keeps values" true (Governor.admits 1 value);
  Alcotest.(check bool) "level 2 drops values" false (Governor.admits 2 value);
  Alcotest.(check bool) "level 3 keeps the failure descriptor" true
    (Governor.admits 3 fd);
  Alcotest.(check bool) "level 3 keeps marks" true
    (Governor.admits 3 (Log.Mark "dial-high"))

let test_governor_degrades_and_marks () =
  let g = Governor.create ~budget:1.1 () in
  let heavy = mk_entry_value () in
  let out = ref [] in
  let emit e = out := e :: !out in
  for step = 1 to 200 do
    Governor.on_event g emit
      { Mvm.Event.step; tid = 0; sid = 0; fname = "f"; kind = Mvm.Event.Step };
    (* several heavy entries per step: pressure far above any budget *)
    for _ = 1 to 4 do
      Governor.admit g emit heavy
    done
  done;
  let entries = List.rev !out in
  Alcotest.(check bool) "reached the failure-only tier" true
    (Governor.level g = 3);
  Alcotest.(check bool) "entries were dropped" true (Governor.dropped g > 0);
  let governs =
    List.filter (function Log.Govern _ -> true | _ -> false) entries
  in
  Alcotest.(check bool) "transitions marked in-stream" true
    (List.length governs >= 3);
  let log =
    Log.make ~recorder:"test" ~entries ~base_steps:200 ~failure:None ()
  in
  Alcotest.(check bool) "log reads as governed" true (Log.governed log);
  List.iter
    (fun (s, e, level) ->
      Alcotest.(check bool) "window well-formed" true (s <= e && level > 0))
    (Log.governed_windows log)

let test_trigger_boosts_to_full () =
  let g = Governor.create ~budget:1.1 () in
  let heavy = mk_entry_value () in
  for step = 1 to 100 do
    Governor.on_event g ignore
      { Mvm.Event.step; tid = 0; sid = 0; fname = "f"; kind = Mvm.Event.Step };
    Governor.admit g ignore heavy
  done;
  Alcotest.(check bool) "degraded before the trigger" true (Governor.level g > 0);
  Governor.admit g ignore (Log.Mark "dial-high");
  Alcotest.(check int) "trigger boosts to full fidelity" 0 (Governor.level g);
  (* inside the hold the governor must not re-degrade *)
  for step = 101 to 120 do
    Governor.on_event g ignore
      { Mvm.Event.step; tid = 0; sid = 0; fname = "f"; kind = Mvm.Event.Step };
    Governor.admit g ignore heavy
  done;
  Alcotest.(check int) "hold pins full fidelity" 0 (Governor.level g)

(* ------------------------------------------------------------------ *)
(* end-to-end: ENOSPC -> salvage -> reproduce *)

let test_enospc_salvage_reproduce () =
  let prepared, original, log = record_miniht (Model.Rcse Model.Trigger_based) in
  Alcotest.(check bool) "recorded run fails" true
    (original.Mvm.Interp.failure <> None);
  let base = seg_base () in
  let plan =
    Faulty_store.make ~seed:7 [ Faulty_store.Disk_full { after_bytes = 2048 } ]
  in
  let faulty, _ = Faulty_store.wrap plan (Store.local ()) in
  let store = Retry.store faulty in
  (match Log_segments.save_via store ~segment_entries:8 base log with
  | Ok () -> Alcotest.fail "a 2 KiB disk swallowed the whole log"
  | Error e ->
    Alcotest.(check bool) "typed permanent ENOSPC" true
      ((not e.Store.transient) && e.Store.e_kind = Store.Enospc));
  match Log_segments.load base with
  | Error e -> Alcotest.fail e
  | Ok (salvaged, r) ->
    Alcotest.(check bool) "flagged as damaged" true
      (Log_segments.is_damaged r);
    Alcotest.(check bool) "a prefix of the recording" true
      (is_prefix salvaged.Log.entries log.Log.entries);
    let outcome = Session.replay prepared salvaged in
    Alcotest.(check bool) "failure reproduced from the salvaged prefix" true
      (outcome.Ddet_replay.Replayer.result <> None);
    let a =
      Session.assess ~salvaged:true prepared ~original ~log:salvaged outcome
    in
    Alcotest.(check bool) "DF capped at the salvage floor" true
      (a.Ddet_metrics.Utility.df
       <= Ddet_metrics.Fidelity.floor_df miniht.App.catalog +. 1e-9);
    Alcotest.(check bool) "degraded flagged" true
      a.Ddet_metrics.Utility.degraded;
    seg_cleanup base

(* ------------------------------------------------------------------ *)
(* end-to-end: the 1.3x acceptance run *)

let test_governor_budget_acceptance () =
  let prepared, original, log =
    record_miniht ~overhead_budget:budget_13 Model.Perfect
  in
  Alcotest.(check bool) "recorded run fails" true
    (original.Mvm.Interp.failure <> None);
  let overhead = Cost_model.overhead Cost_model.default log in
  Alcotest.(check bool)
    (Printf.sprintf "measured overhead %.2fx within the %.1fx budget" overhead
       budget_13)
    true
    (overhead <= budget_13 +. 1e-9);
  Alcotest.(check bool) "log marks its degraded windows" true
    (Log.governed log);
  let outcome = Session.replay prepared log in
  (match outcome.Ddet_replay.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "the original failure reproduces" true
      (Ddet_replay.Constraints.failure_matches log r)
  | None -> Alcotest.fail "governed replay found nothing");
  let a = Session.assess prepared ~original ~log outcome in
  let floor = Ddet_metrics.Fidelity.floor_df miniht.App.catalog in
  Alcotest.(check bool) "DF at least the floor" true
    (a.Ddet_metrics.Utility.df >= floor -. 1e-9);
  Alcotest.(check bool) "floor reported honestly" true
    (a.Ddet_metrics.Utility.df_floor = Some floor);
  Alcotest.(check bool) "windows counted" true
    (a.Ddet_metrics.Utility.governed_windows > 0);
  Alcotest.(check bool) "degraded flagged" true a.Ddet_metrics.Utility.degraded

(* the ungoverned control: same recording without a budget blows well
   past it — the governor is doing real work above *)
let test_ungoverned_control_exceeds_budget () =
  let _, _, log = record_miniht Model.Perfect in
  let overhead = Cost_model.overhead Cost_model.default log in
  Alcotest.(check bool)
    (Printf.sprintf "ungoverned overhead %.2fx exceeds the budget" overhead)
    true
    (overhead > budget_13)

let () =
  Alcotest.run "govern"
    [
      ( "retry",
        [
          Alcotest.test_case "absorbs transients" `Quick
            test_retry_absorbs_transient;
          Alcotest.test_case "permanent is immediate" `Quick
            test_retry_permanent_is_immediate;
          Alcotest.test_case "gives up honestly" `Quick test_retry_gives_up;
        ] );
      ( "faulty-store",
        [
          Alcotest.test_case "plan roundtrip" `Quick test_faulty_plan_roundtrip;
          Alcotest.test_case "injection is deterministic" `Quick
            test_faulty_injection_deterministic;
          QCheck_alcotest.to_alcotest storage_fault_law;
          Alcotest.test_case "fsyncfail:1 fails a monolithic save" `Quick
            test_fsyncfail_monolithic;
          Alcotest.test_case "torn:1 on a monolithic save never fires" `Quick
            test_torn_on_fsync_never_fires;
          Alcotest.test_case "every layout fsyncs what it writes" `Quick
            test_every_layout_durable;
          Alcotest.test_case "a full disk fails a local write" `Quick
            test_local_write_reports_full_disk;
        ] );
      ( "governor",
        [
          Alcotest.test_case "ladder admits" `Quick test_ladder_admits;
          Alcotest.test_case "degrades and marks windows" `Quick
            test_governor_degrades_and_marks;
          Alcotest.test_case "trigger boosts to full" `Quick
            test_trigger_boosts_to_full;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "ENOSPC, salvage, reproduce" `Quick
            test_enospc_salvage_reproduce;
          Alcotest.test_case "1.3x budget acceptance" `Slow
            test_governor_budget_acceptance;
          Alcotest.test_case "ungoverned control" `Quick
            test_ungoverned_control_exceeds_budget;
        ] );
    ]
