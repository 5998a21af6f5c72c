(* Searches run through the attempt pool must be observationally
   identical at any jobs count: byte-identical accepted traces, identical
   stats — on schedule races, seed scans and fault-injected worlds. The
   in-order engines (DFS, input enumeration) must ignore jobs and share
   no state between searches. Also covers the DFS odometer: a clamped
   prefix digit is an exhausted branch. *)

open Mvm
open Mvm.Dsl
open Ddet
open Ddet_record
open Ddet_replay
open Ddet_apps

let jobs = 4

(* [f ()] under a fresh tracer, with the chunks the pool claimed *)
let with_claims f =
  let t = Ddet_obs.Tracer.create ~capacity:1024 () in
  let r = Ddet_obs.Tracer.with_current t f in
  let claims =
    List.assoc_opt "par.chunk_claims" (Ddet_obs.Tracer.counters t)
  in
  (r, Option.value ~default:0 claims)

(* The fan-out guard: with two or more cores, the jobs > 1 side of a
   parity case must have reached the indexed pool, or the case would
   compare the in-order loop with itself. On one core the pool runs in
   order, as the product does there. *)
let fanned_out name f =
  let r, claims = with_claims f in
  if Domain.recommended_domain_count () >= 2 then
    Alcotest.(check bool) (name ^ ": chunks claimed") true (claims > 0);
  r

(* The replay drivers pass the recorded run's base_steps as the
   attempt-cost estimate, the only input the placement reads; a log
   claiming the min-work threshold sends jobs > 1 to the pool, as a
   long production run would. *)
let pool_sized (log : Log.t) =
  { log with
    Log.base_steps = Par_search.default_tuning.Par_search.spawn_cost_steps }

(* ------------------------------------------------------------------ *)
(* workloads *)

(* The adder race: two unsynchronised workers each increment a shared
   counter [iters] times. *)
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

let spec_out n =
  Spec.make "sum" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint k ] when k = n -> Ok ()
      | _ -> Error "lost-update")

let adder_prog =
  program ~name:"adder" ~regions:[]
    ~inputs:[ ("a", List.init 6 Value.int); ("b", List.init 6 Value.int) ]
    ~main:"main"
    [
      func "main" []
        [ input "a" "a"; input "b" "b"; output "sum" (v "a" +: v "b") ];
    ]

let find_failing_seed labeled spec =
  let rec scan s =
    if s > 500 then Alcotest.fail "no failing seed"
    else
      let r = Spec.apply spec (Interp.run labeled (World.random ~seed:s)) in
      if r.Interp.failure <> None then s else scan (s + 1)
  in
  scan 1

let failure_log labeled spec seed =
  let _, log =
    Recorder.record (Failure_recorder.create ()) labeled ~spec
      ~world:(World.random ~seed)
  in
  log

(* ------------------------------------------------------------------ *)
(* parity checks *)

let check_same_result name (a : Interp.result option) (b : Interp.result option)
    =
  match (a, b) with
  | Some r1, Some r2 ->
    Alcotest.(check bool)
      (name ^ ": byte-identical accepted trace")
      true
      (Trace.events r1.Interp.trace = Trace.events r2.Interp.trace);
    Alcotest.(check bool)
      (name ^ ": same outputs")
      true
      (r1.Interp.outputs = r2.Interp.outputs);
    Alcotest.(check bool)
      (name ^ ": same failure")
      true
      (r1.Interp.failure = r2.Interp.failure)
  | None, None -> ()
  | _ -> Alcotest.fail (name ^ ": one engine accepted, the other did not")

let check_same_outcome name (s : Search.outcome) (p : Search.outcome) =
  Alcotest.(check int) (name ^ ": attempts") s.Search.stats.Search.attempts
    p.Search.stats.Search.attempts;
  Alcotest.(check int)
    (name ^ ": total steps")
    s.Search.stats.Search.total_steps p.Search.stats.Search.total_steps;
  Alcotest.(check int) (name ^ ": pruned") s.Search.stats.Search.pruned
    p.Search.stats.Search.pruned;
  Alcotest.(check bool) (name ^ ": success") s.Search.stats.Search.success
    p.Search.stats.Search.success;
  check_same_result name s.Search.result p.Search.result

(* ------------------------------------------------------------------ *)
(* adder race (racy counter): restarts and DFS *)

let test_restarts_parity_counter () =
  let labeled = counter_prog ~iters:10 and spec = spec_out 20 in
  let seed = find_failing_seed labeled spec in
  let log = failure_log labeled spec seed in
  let accept = Constraints.failure_matches log in
  let budget =
    { Search.max_attempts = 200; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let make ~attempt = (World.random ~seed:attempt, None) in
  let s = Search.random_restarts budget ~make ~spec ~accept labeled in
  let p =
    fanned_out "restarts/counter" (fun () ->
        Search.random_restarts ~jobs budget ~make ~spec ~accept labeled)
  in
  Alcotest.(check bool) "restarts reproduce the race" true
    s.Search.stats.Search.success;
  check_same_outcome "restarts/counter" s p

(* the min-work heuristic: an attempt estimated cheaper than a domain
   spawn forces the sequential path, and (by construction — it IS the
   sequential engine) the outcome is unchanged; an estimate at the
   threshold or above, or none, leaves the fan-out to the cores cap *)
let test_min_work_heuristic () =
  let cores = max 1 (Domain.recommended_domain_count ()) in
  let threshold = Par_search.default_tuning.Par_search.spawn_cost_steps in
  Alcotest.(check int) "tiny estimate forces sequential" 1
    (Par_search.effective_jobs ~jobs:8 (Some 100));
  Alcotest.(check int) "the threshold keeps the fan-out" (min 8 cores)
    (Par_search.effective_jobs ~jobs:8 (Some threshold));
  Alcotest.(check int) "no estimate keeps the fan-out" (min 8 cores)
    (Par_search.effective_jobs ~jobs:8 None);
  Alcotest.(check int) "cores cap clamps to the machine" (min 64 cores)
    (Par_search.effective_jobs ~jobs:64 None);
  let labeled = counter_prog ~iters:10 and spec = spec_out 20 in
  let seed = find_failing_seed labeled spec in
  let log = failure_log labeled spec seed in
  let accept = Constraints.failure_matches log in
  let budget =
    { Search.max_attempts = 200; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let make ~attempt = (World.random ~seed:attempt, None) in
  let s = Search.random_restarts budget ~make ~spec ~accept labeled in
  let p, claims =
    with_claims (fun () ->
        Search.random_restarts ~jobs ~est_attempt_steps:100 budget ~make ~spec
          ~accept labeled)
  in
  Alcotest.(check int) "min-work/counter: no chunk claimed" 0 claims;
  check_same_outcome "min-work/counter" s p

(* The DFS takes no jobs and keeps its arena and counters per search, with
   no lock: two searches running at once on their own domains must each
   match the one run on the calling thread. *)
let test_dfs_parity_counter () =
  let labeled = counter_prog ~iters:4 and spec = spec_out 8 in
  let seed = find_failing_seed labeled spec in
  let log = failure_log labeled spec seed in
  let accept = Constraints.failure_matches log in
  let budget =
    { Search.max_attempts = 300; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let dfs () = Search.dfs_schedules budget ~spec ~accept labeled in
  let s = dfs () in
  Alcotest.(check bool) "dfs reproduces the race" true
    s.Search.stats.Search.success;
  Alcotest.(check bool) "the search backtracked" true
    (s.Search.stats.Search.attempts > 1);
  let d1 = Domain.spawn dfs and d2 = Domain.spawn dfs in
  let p1 = Domain.join d1 and p2 = Domain.join d2 in
  check_same_outcome "dfs/counter, first domain" s p1;
  check_same_outcome "dfs/counter, second domain" s p2

(* Input enumeration runs in order at any jobs: the output-determinism
   driver enumerates an input-only program whatever [jobs] it is given,
   even from a log long enough to send restarts to the pool. *)
let test_enumerate_inputs_parity_adder () =
  let _, log =
    Recorder.record (Output_recorder.create ()) adder_prog ~spec:Spec.accept_all
      ~world:(World.random ~seed:7)
  in
  let log = pool_sized log in
  let budget =
    { Search.max_attempts = 50; max_steps_per_attempt = 1_000; base_seed = 1; deadline_s = None }
  in
  let run jobs =
    Replayer.output_det ~budget ~jobs adder_prog
      ~spec:Spec.accept_all log
  in
  let s = run 1 in
  let p, claims = with_claims (fun () -> run jobs) in
  Alcotest.(check int) "inputs/adder: no chunk claimed" 0 claims;
  Alcotest.(check bool) "enumeration reproduces the outputs" true
    (s.Replayer.result <> None);
  Alcotest.(check int) "inputs/adder: attempts" s.Replayer.attempts
    p.Replayer.attempts;
  Alcotest.(check int) "inputs/adder: steps" s.Replayer.total_steps
    p.Replayer.total_steps;
  check_same_result "inputs/adder" s.Replayer.result p.Replayer.result

(* ------------------------------------------------------------------ *)
(* miniht issue-63 race, through the failure-determinism driver *)

let test_replayer_parity_miniht () =
  let app = Miniht.app () in
  let labeled = app.App.labeled and spec = app.App.spec in
  let seed = find_failing_seed labeled spec in
  let log = pool_sized (failure_log labeled spec seed) in
  let budget =
    { Search.max_attempts = 300; max_steps_per_attempt = 5_000; base_seed = 1; deadline_s = None }
  in
  let s = Replayer.failure_det ~budget labeled ~spec log in
  let p =
    fanned_out "miniht" (fun () ->
        Replayer.failure_det ~budget ~jobs labeled ~spec log)
  in
  Alcotest.(check int) "miniht: attempts" s.Replayer.attempts
    p.Replayer.attempts;
  Alcotest.(check int) "miniht: steps" s.Replayer.total_steps
    p.Replayer.total_steps;
  Alcotest.(check bool) "miniht: reproduced" true
    (s.Replayer.result <> None);
  check_same_result "miniht" s.Replayer.result p.Replayer.result

(* ------------------------------------------------------------------ *)
(* a fault-injected world, through the whole Session pipeline *)

let drop_plan =
  Fault.make ~seed:11
    [
      Fault.drop ~prob:0.15 "ack_0";
      Fault.drop ~prob:0.15 "ack_1";
      Fault.drop ~prob:0.12 "repl";
    ]

let test_session_parity_faulted_cloudstore () =
  let cloud = Cloudstore.app () in
  match Workload.find_failing_seed ~faults:drop_plan cloud with
  | None -> Alcotest.fail "no failing cloudstore seed under the drop plan"
  | Some (seed, _) ->
    let outcome_at jobs =
      let config = { Config.default with Config.jobs } in
      let prepared = Session.prepare ~config Model.Failure_det cloud in
      let _, log = Session.record ~faults:drop_plan prepared ~seed in
      Session.replay prepared (pool_sized log)
    in
    let s = outcome_at 1 in
    let p = fanned_out "faulted" (fun () -> outcome_at jobs) in
    Alcotest.(check int) "faulted: attempts" s.Replayer.attempts
      p.Replayer.attempts;
    Alcotest.(check int) "faulted: steps" s.Replayer.total_steps
      p.Replayer.total_steps;
    check_same_result "faulted" s.Replayer.result p.Replayer.result

(* ------------------------------------------------------------------ *)
(* seed scans *)

let test_first_success_parity () =
  let f n = if n * n > 50 then Some (n * n) else None in
  let s = Search.first_success ~from:0 ~count:20 ~f () in
  let p =
    fanned_out "scan" (fun () ->
        Search.first_success ~jobs ~from:0 ~count:20 ~f ())
  in
  Alcotest.(check (option (pair int int))) "lowest index wins" (Some (8, 64)) s;
  Alcotest.(check (option (pair int int))) "parallel agrees" s p;
  let none =
    fanned_out "exhausted scan" (fun () ->
        Search.first_success ~jobs ~from:0 ~count:5 ~f ())
  in
  Alcotest.(check (option (pair int int))) "exhausted scan" None none

let test_find_failing_seed_parity () =
  let app = Miniht.app () in
  let s = Workload.find_failing_seed app in
  let p =
    fanned_out "find_failing_seed" (fun () ->
        Workload.find_failing_seed ~jobs app)
  in
  match (s, p) with
  | Some (s1, r1), Some (s2, r2) ->
    Alcotest.(check int) "same seed" s1 s2;
    Alcotest.(check bool) "same run" true
      (Trace.events r1.Interp.trace = Trace.events r2.Interp.trace)
  | None, None -> Alcotest.fail "miniht should have a failing seed"
  | _ -> Alcotest.fail "scan outcomes disagree"

(* ------------------------------------------------------------------ *)
(* odometer mechanics *)

let test_clamped_digit_is_exhausted () =
  let labeled = counter_prog ~iters:2 in
  (* digit 99 can never be a real branch index: the probe must stop at the
     clamped decision and report the true fan-out so the odometer carries
     past the dead branch instead of re-running its clamped duplicate *)
  let probe = Engine.exec_schedule ~budget:5_000 ~prefix:[| 99 |] labeled in
  (match probe.Engine.early with
  | Engine.Early_clamped -> ()
  | Engine.Ran -> Alcotest.fail "out-of-range digit should clamp");
  (match Engine.classify probe with
  | Engine.Skipped _ -> ()
  | Engine.Attempt _ -> Alcotest.fail "clamped probe must not be an attempt");
  (match probe.Engine.sizes with
  | [ n ] -> Alcotest.(check bool) "fan-out recorded" true (n >= 1)
  | _ -> Alcotest.fail "clamped probe should report exactly the clamped digit");
  Alcotest.(check bool) "odometer treats the branch as exhausted" true
    (Engine.advance [| 99 |] probe.Engine.sizes = None)

(* the DFS on the racy counter, with the failure log and budget the
   search bench uses: it backtracks to the recorded lost update at
   attempt 31, and the only probes it skips are clamped digits *)
let test_dfs_racy_counter () =
  let labeled = Experiment.racy_counter
  and spec = Experiment.racy_counter_spec in
  let seed = find_failing_seed labeled spec in
  let log = failure_log labeled spec seed in
  let accept = Constraints.failure_matches log in
  let budget =
    { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000;
      base_seed = 1; deadline_s = None }
  in
  let o = Search.dfs_schedules budget ~spec ~accept labeled in
  let st = o.Search.stats in
  Alcotest.(check bool) "reproduced" true st.Search.success;
  Alcotest.(check int) "attempts" 31 st.Search.attempts;
  Alcotest.(check int) "pruned" 0 st.Search.pruned;
  Alcotest.(check int) "steps" 1_395 st.Search.total_steps

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "par_search"
    [
      ( "parity",
        [
          Alcotest.test_case "min-work heuristic" `Quick
            test_min_work_heuristic;
          Alcotest.test_case "restarts on the adder race" `Quick
            test_restarts_parity_counter;
          Alcotest.test_case "dfs on the adder race" `Quick
            test_dfs_parity_counter;
          Alcotest.test_case "input enumeration on adder" `Quick
            test_enumerate_inputs_parity_adder;
          Alcotest.test_case "failure-det driver on miniht" `Slow
            test_replayer_parity_miniht;
          Alcotest.test_case "session on fault-injected cloudstore" `Slow
            test_session_parity_faulted_cloudstore;
          Alcotest.test_case "first_success scan" `Quick
            test_first_success_parity;
          Alcotest.test_case "find_failing_seed scan" `Quick
            test_find_failing_seed_parity;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "dfs on the racy counter" `Quick
            test_dfs_racy_counter;
          Alcotest.test_case "clamped digit is exhausted" `Quick
            test_clamped_digit_is_exhausted;
        ] );
    ]
