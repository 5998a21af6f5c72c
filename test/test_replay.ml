(* Unit tests for ddet_replay: oracles, constraints, search engines and the
   per-model replay drivers, on small purpose-built programs. *)

open Mvm
open Mvm.Dsl
open Ddet_record
open Ddet_replay

let value_testable = Alcotest.testable Value.pp Value.equal

(* Racy counter: the replay battleground. *)
let counter_prog ~iters =
  program ~name:"counter"
    ~regions:[ scalar "c" (Value.int 0) ]
    ~inputs:[] ~main:"main"
    [
      func "main" []
        [
          spawn "w" []; spawn "w" [];
          recv "d1" "done"; recv "d2" "done";
          output "out" (g "c");
        ];
      func "w" []
        [
          for_ "k" (i 0) (i iters)
            [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ];
          send "done" (i 1);
        ];
    ]

let adder_prog =
  program ~name:"adder" ~regions:[]
    ~inputs:[ ("a", List.init 6 Value.int); ("b", List.init 6 Value.int) ]
    ~main:"main"
    [
      func "main" []
        [ input "a" "a"; input "b" "b"; output "sum" (v "a" +: v "b") ];
    ]

let spec_out_20 =
  Spec.make "twenty" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint 20 ] -> Ok ()
      | _ -> Error "lost-update")

let record_counter seed recorder =
  Recorder.record recorder (counter_prog ~iters:10) ~spec:spec_out_20
    ~world:(World.random ~seed)

let find_failing_seed () =
  let rec scan seed =
    if seed > 500 then failwith "no failing seed for counter"
    else
      let r, _ = record_counter seed (Output_recorder.create ()) in
      if r.Interp.failure <> None then seed else scan (seed + 1)
  in
  scan 1

(* ------------------------------------------------------------------ *)
(* perfect replay *)

let test_perfect_roundtrip () =
  let seed = find_failing_seed () in
  let original, log = record_counter seed (Full_recorder.create ()) in
  let outcome = Replayer.perfect (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "perfect replay diverged"
  | Some replay ->
    Alcotest.(check bool) "identical outputs" true
      (replay.Interp.outputs = original.Interp.outputs);
    Alcotest.(check (list (pair int int)))
      "identical schedule"
      (Trace.sched_points original.Interp.trace)
      (Trace.sched_points replay.Interp.trace)

let test_perfect_detects_corrupt_log () =
  let _, log = record_counter 1 (Full_recorder.create ()) in
  (* corrupt the schedule: swap the first two entries *)
  let entries =
    match log.Log.entries with
    | a :: b :: rest -> b :: a :: rest
    | es -> es
  in
  let log = { log with Log.entries } in
  let handle = Oracle.perfect log in
  let r = Interp.run ~abort:handle.Oracle.abort (counter_prog ~iters:10) handle.Oracle.world in
  match r.Interp.status with
  | Interp.Aborted _ -> ()
  | _ -> Alcotest.fail "corrupted log should abort the replay"

(* ------------------------------------------------------------------ *)
(* value replay *)

let test_value_reproduces_failure () =
  let seed = find_failing_seed () in
  let original, log = record_counter seed (Value_recorder.create ()) in
  let outcome = Replayer.value_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "value replay failed"
  | Some replay ->
    Alcotest.(check bool) "same failure" true
      (original.Interp.failure = replay.Interp.failure)

let test_value_preserves_thread_projection () =
  let seed = find_failing_seed () in
  let original, log = record_counter seed (Value_recorder.create ()) in
  let outcome = Replayer.value_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "value replay failed"
  | Some replay ->
    (* per-thread shared-read projections must match the original *)
    for tid = 0 to 2 do
      Alcotest.(check (list value_testable))
        (Printf.sprintf "thread %d reads" tid)
        (Trace.reads_by original.Interp.trace tid)
        (Trace.reads_by replay.Interp.trace tid)
    done

let test_value_forces_try_recv_outcomes () =
  (* a consumer polling an initially empty channel: the poll pattern is
     part of the thread's observations and must replay *)
  let p =
    program ~name:"poll" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" []
          [
            spawn "producer" [];
            assign "got" (i 0);
            while_ (v "got" =: i 0)
              [ try_recv "ok" "x" "ch";
                when_ (v "ok") [ assign "got" (i 1); output "out" (v "x") ] ];
          ];
        func "producer" [] [ yield; yield; send "ch" (i 42) ];
      ]
  in
  let original, log =
    Recorder.record (Value_recorder.create ()) p ~spec:Spec.accept_all
      ~world:(World.random ~seed:7)
  in
  let outcome = Replayer.value_det p ~spec:Spec.accept_all log in
  match outcome.Replayer.result with
  | None -> Alcotest.fail "value replay failed"
  | Some replay ->
    Alcotest.(check bool) "same outputs" true
      (original.Interp.outputs = replay.Interp.outputs)

(* ------------------------------------------------------------------ *)
(* constraints *)

let test_outputs_match () =
  let r, log = record_counter 1 (Output_recorder.create ()) in
  Alcotest.(check bool) "run matches own log" true (Constraints.outputs_match log r)

let test_output_prefix_abort_fires () =
  let _, log = record_counter 1 (Output_recorder.create ()) in
  let abort = Constraints.output_prefix_abort log in
  let bad =
    {
      Event.step = 0; tid = 0; sid = 1; fname = "main";
      kind = Event.Out { chan = "out"; value = Value.untainted (Value.int (-1)) };
    }
  in
  Alcotest.(check bool) "mismatching output aborts" true (abort bad <> None)

let test_output_prefix_accepts_match () =
  let r, log = record_counter 1 (Output_recorder.create ()) in
  let abort = Constraints.output_prefix_abort log in
  let ok = ref true in
  Trace.iter (fun e -> if abort e <> None then ok := false) r.Interp.trace;
  Alcotest.(check bool) "own trace passes" true !ok

let test_failure_matches () =
  let p =
    program ~name:"boom" ~regions:[] ~inputs:[] ~main:"main"
      [ func "main" [] [ fail "kaput" ] ]
  in
  let r, log =
    Recorder.record (Failure_recorder.create ()) p ~spec:Spec.accept_all
      ~world:(World.round_robin ())
  in
  Alcotest.(check bool) "matches itself" true (Constraints.failure_matches log r)

(* ------------------------------------------------------------------ *)
(* search *)

let test_enumerate_finds_assignment () =
  let spec = Spec.accept_all in
  let accept (r : Interp.result) =
    Trace.outputs_on r.Interp.trace "sum" = [ Value.int 7 ]
  in
  let o = Search.enumerate_inputs Search.default_budget ~spec ~accept adder_prog in
  match o.Search.result with
  | Some r -> (
    match Trace.inputs_on r.Interp.trace "a", Trace.inputs_on r.Interp.trace "b" with
    | [ (_, _, Value.Vint a) ], [ (_, _, Value.Vint b) ] ->
      Alcotest.(check int) "inputs sum to 7" 7 (a + b)
    | _ -> Alcotest.fail "malformed inputs")
  | None -> Alcotest.fail "enumeration missed a satisfiable goal"

let test_enumerate_exhausts () =
  let spec = Spec.accept_all in
  let accept (r : Interp.result) =
    Trace.outputs_on r.Interp.trace "sum" = [ Value.int 99 ]
  in
  let o = Search.enumerate_inputs Search.default_budget ~spec ~accept adder_prog in
  Alcotest.(check bool) "unsatisfiable goal fails" true (o.Search.result = None);
  Alcotest.(check int) "exactly the 36 assignments tried" 36 o.Search.stats.attempts

let test_enumerate_lexicographic () =
  let spec = Spec.accept_all in
  let o = Search.enumerate_inputs Search.default_budget ~spec
      ~accept:(fun _ -> true) adder_prog
  in
  match o.Search.result with
  | Some r ->
    Alcotest.(check (list value_testable)) "first assignment is all-zero"
      [ Value.int 0 ]
      (Trace.outputs_on r.Interp.trace "sum")
  | None -> Alcotest.fail "accept-all must succeed"

let test_restarts_budget_respected () =
  let o =
    Search.random_restarts
      { Search.max_attempts = 7; max_steps_per_attempt = 1000; base_seed = 1; deadline_s = None }
      ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
      ~spec:Spec.accept_all
      ~accept:(fun _ -> false)
      adder_prog
  in
  Alcotest.(check int) "attempts capped" 7 o.Search.stats.attempts;
  Alcotest.(check bool) "no result" true (o.Search.result = None);
  Alcotest.(check bool) "steps accounted" true (o.Search.stats.total_steps > 0)

let test_restarts_stops_on_success () =
  let o =
    Search.random_restarts
      { Search.max_attempts = 100; max_steps_per_attempt = 1000; base_seed = 1; deadline_s = None }
      ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
      ~spec:Spec.accept_all
      ~accept:(fun _ -> true)
      adder_prog
  in
  Alcotest.(check int) "first attempt accepted" 1 o.Search.stats.attempts

let small_counter = counter_prog ~iters:3

let spec_out_6 =
  Spec.make "six" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint 6 ] -> Ok ()
      | _ -> Error "lost-update")

let test_dfs_finds_lost_update () =
  let budget =
    { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let o =
    Search.dfs_schedules budget ~spec:spec_out_6
      ~accept:(fun r -> r.Interp.failure <> None)
      small_counter
  in
  match o.Search.result with
  | Some r -> (
    match r.Interp.failure with
    | Some (Mvm.Failure.Spec_violation "lost-update") -> ()
    | _ -> Alcotest.fail "wrong failure")
  | None -> Alcotest.fail "systematic search missed the lost update"

let test_dfs_deterministic () =
  let budget =
    { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let run () =
    (Search.dfs_schedules budget ~spec:spec_out_6
       ~accept:(fun r -> r.Interp.failure <> None)
       small_counter)
      .Search.stats.attempts
  in
  Alcotest.(check int) "same attempt count" (run ()) (run ())

let test_dfs_exhausts_budget_on_unsatisfiable () =
  let budget =
    { Search.max_attempts = 50; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let o =
    Search.dfs_schedules budget ~spec:Spec.accept_all
      ~accept:(fun _ -> false)
      small_counter
  in
  Alcotest.(check bool) "no result" true (o.Search.result = None);
  Alcotest.(check int) "budget spent" 50 o.Search.stats.attempts

let test_dfs_fixed_inputs () =
  let o =
    Search.dfs_schedules
      { Search.max_attempts = 1; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
      ~spec:Spec.accept_all
      ~accept:(fun _ -> true)
      adder_prog
  in
  match o.Search.result with
  | Some r ->
    Alcotest.(check (list value_testable)) "inputs pinned to first domain value"
      [ Value.int 0 ]
      (Trace.outputs_on r.Interp.trace "sum")
  | None -> Alcotest.fail "accept-all must succeed"

(* ------------------------------------------------------------------ *)
(* model drivers on the counter race *)

let test_failure_det_reproduces () =
  let seed = find_failing_seed () in
  let _, log = record_counter seed (Failure_recorder.create ()) in
  let outcome = Replayer.failure_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "failure reproduced" true
      (Constraints.failure_matches log r)
  | None -> Alcotest.fail "failure synthesis exhausted its budget"

let test_output_det_reproduces_outputs () =
  let seed = find_failing_seed () in
  let _, log = record_counter seed (Output_recorder.create ()) in
  let outcome =
    Replayer.output_det (counter_prog ~iters:10)
      ~spec:spec_out_20 log
  in
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "outputs reproduced" true (Constraints.outputs_match log r)
  | None -> Alcotest.fail "output inference exhausted its budget"

let test_sync_det_reproduces () =
  let seed = find_failing_seed () in
  let _, log = record_counter seed (Sync_recorder.create ()) in
  let outcome = Replayer.sync_det (counter_prog ~iters:10) ~spec:spec_out_20 log in
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "outputs reproduced" true (Constraints.outputs_match log r)
  | None -> Alcotest.fail "sync inference exhausted its budget"

let test_rcse_empty_log_is_free_search () =
  let seed = find_failing_seed () in
  let _, log =
    record_counter seed
      (Rcse_recorder.create (Fidelity_level.always Fidelity_level.Low))
  in
  let outcome = Replayer.rcse (counter_prog ~iters:10) ~spec:spec_out_20 log in
  (* with nothing recorded, RCSE degenerates to failure-determinism search *)
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "failure reproduced" true
      (Constraints.failure_matches log r)
  | None -> Alcotest.fail "search exhausted"

let test_rcse_full_log_replays_immediately () =
  let seed = find_failing_seed () in
  let original, log =
    record_counter seed
      (Rcse_recorder.create (Fidelity_level.always Fidelity_level.High))
  in
  let outcome = Replayer.rcse (counter_prog ~iters:10) ~spec:spec_out_20 log in
  Alcotest.(check int) "one attempt suffices" 1 outcome.Replayer.attempts;
  match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "identical outputs" true
      (r.Interp.outputs = original.Interp.outputs)
  | None -> Alcotest.fail "full-fidelity rcse must replay"

let () =
  Alcotest.run "replay"
    [
      ( "perfect",
        [
          Alcotest.test_case "roundtrip" `Quick test_perfect_roundtrip;
          Alcotest.test_case "detects corruption" `Quick test_perfect_detects_corrupt_log;
        ] );
      ( "value",
        [
          Alcotest.test_case "reproduces failure" `Quick test_value_reproduces_failure;
          Alcotest.test_case "thread projection" `Quick test_value_preserves_thread_projection;
          Alcotest.test_case "try_recv outcomes" `Quick test_value_forces_try_recv_outcomes;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "outputs match" `Quick test_outputs_match;
          Alcotest.test_case "prefix abort fires" `Quick test_output_prefix_abort_fires;
          Alcotest.test_case "prefix accepts own trace" `Quick test_output_prefix_accepts_match;
          Alcotest.test_case "failure matches" `Quick test_failure_matches;
        ] );
      ( "search",
        [
          Alcotest.test_case "enumerate finds" `Quick test_enumerate_finds_assignment;
          Alcotest.test_case "enumerate exhausts" `Quick test_enumerate_exhausts;
          Alcotest.test_case "enumerate order" `Quick test_enumerate_lexicographic;
          Alcotest.test_case "budget respected" `Quick test_restarts_budget_respected;
          Alcotest.test_case "stops on success" `Quick test_restarts_stops_on_success;
          Alcotest.test_case "dfs finds race" `Quick test_dfs_finds_lost_update;
          Alcotest.test_case "dfs deterministic" `Quick test_dfs_deterministic;
          Alcotest.test_case "dfs exhausts" `Quick test_dfs_exhausts_budget_on_unsatisfiable;
          Alcotest.test_case "dfs fixed inputs" `Quick test_dfs_fixed_inputs;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "failure det" `Quick test_failure_det_reproduces;
          Alcotest.test_case "output det" `Quick test_output_det_reproduces_outputs;
          Alcotest.test_case "sync det" `Quick test_sync_det_reproduces;
          Alcotest.test_case "rcse empty log" `Quick test_rcse_empty_log_is_free_search;
          Alcotest.test_case "rcse full log" `Quick test_rcse_full_log_replays_immediately;
        ] );
    ]
