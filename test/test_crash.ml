(* Crash tolerance: a search killed mid-flight and resumed from its
   checkpoint must reach byte-for-byte the outcome of an uninterrupted
   run; a worker crash poisons one attempt, not the search; wall-clock
   deadlines degrade searches to partial outcomes instead of hanging.

   Most kills are simulated: running the same engine under a truncated
   attempt budget with a checkpoint sink leaves exactly the file a
   SIGKILL leaves behind after the sink's last write (every engine
   flushes its frontier on the way out, and writes are atomic). One test
   SIGKILLs a real child process mid-search to back that equivalence. *)

open Mvm
open Mvm.Dsl
open Ddet
open Ddet_record
open Ddet_replay
open Ddet_apps

let jobs = 4

(* The fan-out guard: [f ()] runs under a fresh tracer, and with two or
   more cores the jobs > 1 side of a parity case must have claimed a
   chunk of the indexed pool, or the case would compare the in-order loop
   with itself. On one core the pool runs in order, as the product does
   there. *)
let fanned_out name f =
  let t = Ddet_obs.Tracer.create ~capacity:1024 () in
  let r = Ddet_obs.Tracer.with_current t f in
  let claims =
    List.assoc_opt "par.chunk_claims" (Ddet_obs.Tracer.counters t)
  in
  if Domain.recommended_domain_count () >= 2 then
    Alcotest.(check bool) (name ^ ": chunks claimed") true
      (Option.value ~default:0 claims > 0);
  r

(* the guard on the jobs > 1 runs of a case that loops over jobs *)
let pooled name jobs f = if jobs > 1 then fanned_out name f else f ()

(* The replay drivers pass the recorded run's base_steps as the
   attempt-cost estimate, the only input the placement reads; a log
   claiming the min-work threshold sends jobs > 1 to the pool, as a
   long production run would. *)
let pool_sized (log : Log.t) =
  { log with
    Log.base_steps = Par_search.default_tuning.Par_search.spawn_cost_steps }

(* ------------------------------------------------------------------ *)
(* workloads (as in test_par) *)

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

let never _ = false

(* ------------------------------------------------------------------ *)
(* the child half of the real-SIGKILL test: when the env var is set, run
   an endless checkpointed search instead of the suite, and let the
   parent kill us whenever it pleases *)

let child_budget =
  { Search.max_attempts = 1_000_000; max_steps_per_attempt = 5_000;
    base_seed = 1; deadline_s = None }

let child_labeled = counter_prog ~iters:10
let child_spec = spec_out 20
let child_make ~attempt = (World.random ~seed:attempt, None)

let () =
  match Sys.getenv_opt "DDET_CRASH_CHILD" with
  | Some file ->
    ignore
      (Search.random_restarts
         ~checkpoint:(Checkpoint.sink ~every:1 file)
         child_budget ~make:child_make ~spec:child_spec ~accept:never
         child_labeled);
    exit 0
  | None -> ()

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
      (name ^ ": same outputs") true
      (r1.Interp.outputs = r2.Interp.outputs);
    Alcotest.(check bool)
      (name ^ ": same failure") true
      (r1.Interp.failure = r2.Interp.failure)
  | None, None -> ()
  | _ -> Alcotest.fail (name ^ ": one run accepted, the other did not")

let check_same_outcome name (a : Search.outcome) (b : Search.outcome) =
  Alcotest.(check int) (name ^ ": attempts") a.Search.stats.Search.attempts
    b.Search.stats.Search.attempts;
  Alcotest.(check int)
    (name ^ ": total steps")
    a.Search.stats.Search.total_steps b.Search.stats.Search.total_steps;
  Alcotest.(check int) (name ^ ": pruned") a.Search.stats.Search.pruned
    b.Search.stats.Search.pruned;
  Alcotest.(check bool) (name ^ ": success") a.Search.stats.Search.success
    b.Search.stats.Search.success;
  (match (a.Search.partial, b.Search.partial) with
  | None, None -> ()
  | Some p1, Some p2 ->
    Alcotest.(check (float 0.))
      (name ^ ": partial closeness")
      p1.Search.closeness p2.Search.closeness;
    Alcotest.(check int) (name ^ ": partial attempt") p1.Search.attempt
      p2.Search.attempt;
    Alcotest.(check bool)
      (name ^ ": partial trace") true
      (Trace.events p1.Search.best.Interp.trace
      = Trace.events p2.Search.best.Interp.trace)
  | _ -> Alcotest.fail (name ^ ": partial presence differs"));
  check_same_result name a.Search.result b.Search.result

(* ------------------------------------------------------------------ *)
(* simulated kill-and-resume over a whole search-engine run *)

type runner =
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Search.budget ->
  Search.outcome

(* kill points: every one for small searches, a spread for larger *)
let kill_points last =
  if last <= 12 then List.init last (fun i -> i + 1)
  else
    List.sort_uniq compare [ 1; 2; last / 4; last / 2; last - 1; last ]

let kill_and_resume name (run : runner) budget =
  (* pick a base seed whose search survives at least one attempt before
     deciding, so there is a mid-flight frontier to kill at *)
  let rec pick bs =
    if bs > budget.Search.base_seed + 20 then
      Alcotest.fail (name ^ ": no killable configuration")
    else
      let b = { budget with Search.base_seed = bs } in
      let full = run b in
      let attempts = full.Search.stats.Search.attempts in
      let last =
        if full.Search.stats.Search.success then attempts - 1
        else attempts / 2
      in
      if last >= 1 then (b, full, last) else pick (bs + 1)
  in
  let b, full, last = pick budget.Search.base_seed in
  let file = Filename.temp_file "ddet_crash" ".ckpt" in
  List.iter
    (fun kill_at ->
      ignore
        (run
           ~checkpoint:(Checkpoint.sink ~every:1 file)
           { b with Search.max_attempts = kill_at });
      let c =
        match Checkpoint.load file with
        | Ok c -> c
        | Error e -> Alcotest.fail (name ^ ": " ^ e)
      in
      let resumed = run ~resume:c b in
      check_same_outcome (Printf.sprintf "%s@%d" name kill_at) full resumed)
    (kill_points last);
  Sys.remove file

(* accept only runs reproducing the recorded run's exact final counter
   value, not just any lost update: a strict-enough criterion that the
   search genuinely has to look, leaving mid-flight frontiers to kill *)
let counter_case () =
  let labeled = counter_prog ~iters:10 and spec = spec_out 20 in
  let seed = find_failing_seed labeled spec in
  let original = Spec.apply spec (Interp.run labeled (World.random ~seed)) in
  let want = Trace.outputs_on original.Interp.trace "out" in
  let accept r =
    r.Interp.failure <> None && Trace.outputs_on r.Interp.trace "out" = want
  in
  (labeled, spec, accept)

let test_restarts_kill_resume () =
  let labeled, spec, accept = counter_case () in
  let budget =
    { Search.max_attempts = 200; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
  in
  (* seed worlds from the budget's base seed, as the real drivers do, so
     the pick loop in [kill_and_resume] actually varies the search *)
  let make_of (b : Search.budget) ~attempt =
    (World.random ~seed:(b.Search.base_seed + attempt), None)
  in
  kill_and_resume "restarts/seq"
    (fun ?checkpoint ?resume b ->
      Search.random_restarts ?checkpoint ?resume b ~make:(make_of b) ~spec
        ~accept labeled)
    budget;
  kill_and_resume "restarts/par"
    (fun ?checkpoint ?resume b ->
      fanned_out "restarts/par" (fun () ->
          Search.random_restarts ~jobs ?checkpoint ?resume b ~make:(make_of b)
            ~spec ~accept labeled))
    budget

(* checkpoints are interchangeable between sequential and parallel runs:
   a frontier written at jobs=1 resumes at jobs=4 (and vice versa) to the
   same outcome *)
let test_cross_jobs_resume () =
  let labeled, spec, accept = counter_case () in
  let budget =
    { Search.max_attempts = 200; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
  in
  let make_of (b : Search.budget) ~attempt =
    (World.random ~seed:(b.Search.base_seed + attempt), None)
  in
  let seq ?checkpoint ?resume b =
    Search.random_restarts ?checkpoint ?resume b ~make:(make_of b) ~spec
      ~accept labeled
  in
  let par ?checkpoint ?resume b =
    fanned_out "cross/par" (fun () ->
        Search.random_restarts ~jobs ?checkpoint ?resume b ~make:(make_of b)
          ~spec ~accept labeled)
  in
  let rec pick bs =
    if bs > 20 then Alcotest.fail "cross: no killable base seed"
    else
      let b = { budget with Search.base_seed = bs } in
      let full = seq b in
      if full.Search.stats.Search.attempts >= 2 then (b, full) else pick (bs + 1)
  in
  let budget, full = pick 1 in
  let last =
    if full.Search.stats.Search.success then full.Search.stats.Search.attempts - 1
    else full.Search.stats.Search.attempts / 2
  in
  let file = Filename.temp_file "ddet_crash" ".ckpt" in
  let cut = { budget with Search.max_attempts = last } in
  let load () =
    match Checkpoint.load file with
    | Ok c -> c
    | Error e -> Alcotest.fail ("cross: " ^ e)
  in
  ignore (seq ~checkpoint:(Checkpoint.sink ~every:1 file) cut);
  check_same_outcome "cross seq->par" full (par ~resume:(load ()) budget);
  ignore (par ~checkpoint:(Checkpoint.sink ~every:1 file) cut);
  check_same_outcome "cross par->seq" full (seq ~resume:(load ()) budget);
  Sys.remove file

let test_dfs_kill_resume () =
  let labeled = counter_prog ~iters:4 and spec = spec_out 8 in
  let seed = find_failing_seed labeled spec in
  let log = failure_log labeled spec seed in
  let accept = Constraints.failure_matches log in
  let budget =
    { Search.max_attempts = 300; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
  in
  kill_and_resume "dfs/seq"
    (fun ?checkpoint ?resume b ->
      Search.dfs_schedules ?checkpoint ?resume b ~spec ~accept labeled)
    budget

(* the crash bench's dfs row: the racy counter under its failure log
   reproduces at attempt 31, so the kills reach attempt 30, where the
   resumed search must still reach the same outcome *)
let test_dfs_racy_counter_kill_resume () =
  let labeled = Experiment.racy_counter
  and spec = Experiment.racy_counter_spec in
  let seed = find_failing_seed labeled spec in
  let log = failure_log labeled spec seed in
  let accept = Constraints.failure_matches log in
  let budget =
    { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000;
      base_seed = 1; deadline_s = None }
  in
  kill_and_resume "dfs/racy-counter"
    (fun ?checkpoint ?resume b ->
      Search.dfs_schedules ?checkpoint ?resume b ~spec ~accept labeled)
    budget

let test_enumerate_kill_resume () =
  let spec = Spec.accept_all in
  let accept r = Trace.outputs_on r.Interp.trace "sum" = [ Value.int 7 ] in
  let budget =
    { Search.max_attempts = 50; max_steps_per_attempt = 1_000; base_seed = 1;
      deadline_s = None }
  in
  kill_and_resume "inputs/seq"
    (fun ?checkpoint ?resume b ->
      Search.enumerate_inputs ?checkpoint ?resume b ~spec ~accept adder_prog)
    budget

(* ------------------------------------------------------------------ *)
(* driver- and session-level kill-and-resume *)

let check_same_replay name (a : Replayer.outcome) (b : Replayer.outcome) =
  Alcotest.(check int) (name ^ ": attempts") a.Replayer.attempts
    b.Replayer.attempts;
  Alcotest.(check int) (name ^ ": steps") a.Replayer.total_steps
    b.Replayer.total_steps;
  Alcotest.(check bool) (name ^ ": deadline flag") a.Replayer.deadline_hit
    b.Replayer.deadline_hit;
  check_same_result name a.Replayer.result b.Replayer.result

let test_replayer_kill_resume_miniht () =
  let app = Miniht.app () in
  let labeled = app.App.labeled and spec = app.App.spec in
  let seed = find_failing_seed labeled spec in
  let log = pool_sized (failure_log labeled spec seed) in
  let budget =
    { Search.max_attempts = 300; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
  in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "miniht j%d" jobs in
      let search ?checkpoint ?resume budget =
        pooled name jobs (fun () ->
            Replayer.failure_det ~budget ~jobs ?checkpoint ?resume labeled
              ~spec log)
      in
      let full = search budget in
      Alcotest.(check bool) (name ^ ": reproduced") true
        (full.Replayer.result <> None);
      let kill_at = full.Replayer.attempts - 1 in
      if kill_at < 1 then Alcotest.fail (name ^ ": nothing to kill");
      let file = Filename.temp_file "ddet_crash" ".ckpt" in
      ignore
        (search
           ~checkpoint:(Checkpoint.sink ~every:1 file)
           { budget with Search.max_attempts = kill_at });
      let c =
        match Checkpoint.load file with
        | Ok c -> c
        | Error e -> Alcotest.fail (name ^ ": " ^ e)
      in
      Sys.remove file;
      check_same_replay name full (search ~resume:c budget))
    [ 1; jobs ]

let drop_plan =
  Fault.make ~seed:11
    [
      Fault.drop ~prob:0.15 "ack_0";
      Fault.drop ~prob:0.15 "ack_1";
      Fault.drop ~prob:0.12 "repl";
    ]

let test_session_kill_resume_cloudstore () =
  let cloud = Cloudstore.app () in
  match Workload.find_failing_seed ~faults:drop_plan cloud with
  | None -> Alcotest.fail "no failing cloudstore seed under the drop plan"
  | Some (seed, _) ->
    List.iter
      (fun jobs ->
        let name = Printf.sprintf "cloudstore j%d" jobs in
        let config = { Config.default with Config.jobs } in
        let prepared = Session.prepare ~config Model.Failure_det cloud in
        let _, log = Session.record ~faults:drop_plan prepared ~seed in
        let log = pool_sized log in
        let replay ?checkpoint ?resume budget =
          pooled name jobs (fun () ->
              Session.replay ~budget ?checkpoint ?resume prepared log)
        in
        (* pick a base seed whose search needs > 1 attempt, so the kill
           lands mid-flight *)
        let rec pick bs =
          if bs > 20 then Alcotest.fail (name ^ ": no killable base seed")
          else
            let budget =
              { config.Config.budget with Search.base_seed = bs }
            in
            let full = replay budget in
            if full.Replayer.attempts >= 2 then (budget, full)
            else pick (bs + 1)
        in
        let budget, full = pick 1 in
        let kill_at =
          if full.Replayer.result <> None then full.Replayer.attempts - 1
          else full.Replayer.attempts / 2
        in
        let file = Filename.temp_file "ddet_crash" ".ckpt" in
        ignore
          (replay
             ~checkpoint:(Checkpoint.sink ~every:1 file)
             { budget with Search.max_attempts = kill_at });
        let c =
          match Checkpoint.load file with
          | Ok c -> c
          | Error e -> Alcotest.fail (name ^ ": " ^ e)
        in
        Sys.remove file;
        check_same_replay name full (replay ~resume:c budget))
      [ 1; jobs ]

(* ------------------------------------------------------------------ *)
(* a real SIGKILL: the child process checkpoints every attempt; the
   parent kills it at an arbitrary moment and resumes from whatever the
   last atomic write left on disk *)

let test_sigkill_resume () =
  let file = Filename.temp_file "ddet_sigkill" ".ckpt" in
  Sys.remove file;
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let env =
    Array.append (Unix.environment ()) [| "DDET_CRASH_CHILD=" ^ file |]
  in
  let pid =
    Unix.create_process_env Sys.executable_name [| Sys.executable_name |] env
      Unix.stdin dev_null dev_null
  in
  let give_up = Unix.gettimeofday () +. 30. in
  let rec wait_progress () =
    if Unix.gettimeofday () > give_up then begin
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "child made no checkpoint progress within 30s"
    end
    else
      match Checkpoint.load file with
      | Ok c when c.Checkpoint.attempt >= 5 -> ()
      | _ ->
        Unix.sleepf 0.01;
        wait_progress ()
  in
  wait_progress ();
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Unix.close dev_null;
  let c =
    match Checkpoint.load file with
    | Ok c -> c
    | Error e -> Alcotest.fail ("checkpoint torn by SIGKILL: " ^ e)
  in
  Sys.remove file;
  (* resume to a nearby horizon and compare with an uninterrupted run of
     the same horizon: parity must hold from wherever the kill landed *)
  let horizon =
    { child_budget with Search.max_attempts = c.Checkpoint.attempt + 25 }
  in
  let resumed =
    Search.random_restarts ~resume:c horizon ~make:child_make ~spec:child_spec
      ~accept:never child_labeled
  in
  let full =
    Search.random_restarts horizon ~make:child_make ~spec:child_spec
      ~accept:never child_labeled
  in
  check_same_outcome "sigkill" full resumed

(* ------------------------------------------------------------------ *)
(* supervision: a crashing attempt is retried, then poisoned — never
   fatal *)

let test_poisoned_attempt_skipped () =
  let labeled = counter_prog ~iters:10 and spec = spec_out 20 in
  (* exhaustion run: every attempt is judged, so the poisoned one (3) is
     always reached, sequentially and in parallel *)
  let budget =
    { Search.max_attempts = 6; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
  in
  let make ~attempt =
    if attempt = 3 then failwith "hostile world"
    else (World.random ~seed:attempt, None)
  in
  let s = Search.random_restarts budget ~make ~spec ~accept:never labeled in
  let p =
    fanned_out "poisoned" (fun () ->
        Search.random_restarts ~jobs budget ~make ~spec ~accept:never labeled)
  in
  List.iter
    (fun (name, (o : Search.outcome)) ->
      Alcotest.(check int)
        (name ^ ": search survived to exhaustion")
        budget.Search.max_attempts o.Search.stats.Search.attempts;
      match o.Search.stats.Search.incidents with
      | [ i ] ->
        Alcotest.(check int) (name ^ ": incident attempt") 3 i.Search.at_attempt;
        Alcotest.(check bool) (name ^ ": poisoned") true i.Search.poisoned;
        Alcotest.(check int)
          (name ^ ": bounded retries")
          Search.max_job_retries i.Search.retries
      | incs ->
        Alcotest.fail
          (Printf.sprintf "%s: expected 1 incident, got %d" name
             (List.length incs)))
    [ ("seq", s); ("par", p) ];
  check_same_outcome "poisoned seq=par"
    { s with Search.stats = { s.Search.stats with Search.incidents = [] } }
    { p with Search.stats = { p.Search.stats with Search.incidents = [] } }

let test_flaky_attempt_requeued () =
  let labeled = counter_prog ~iters:10 and spec = spec_out 20 in
  let budget =
    { Search.max_attempts = 6; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
  in
  let first = Atomic.make true in
  let make ~attempt =
    if attempt = 3 && Atomic.exchange first false then failwith "flaky blip"
    else (World.random ~seed:attempt, None)
  in
  let clean ~attempt = (World.random ~seed:attempt, None) in
  let o = Search.random_restarts budget ~make ~spec ~accept:never labeled in
  let reference =
    Search.random_restarts budget ~make:clean ~spec ~accept:never labeled
  in
  (match o.Search.stats.Search.incidents with
  | [ i ] ->
    Alcotest.(check int) "requeue attempt" 3 i.Search.at_attempt;
    Alcotest.(check bool) "not poisoned" false i.Search.poisoned
  | incs ->
    Alcotest.fail
      (Printf.sprintf "expected 1 requeue incident, got %d" (List.length incs)));
  (* the retried attempt is judged normally: same outcome as a run that
     never crashed *)
  check_same_outcome "requeued = clean"
    { reference with
      Search.stats = { reference.Search.stats with Search.incidents = [] } }
    { o with Search.stats = { o.Search.stats with Search.incidents = [] } }

let test_poisoned_scan_probe () =
  let f n = if n = 8 then failwith "probe crash" else if n * n > 50 then Some (n * n) else None in
  let s = Search.first_success ~from:0 ~count:20 ~f () in
  let p =
    fanned_out "poisoned scan" (fun () ->
        Search.first_success ~jobs ~from:0 ~count:20 ~f ())
  in
  Alcotest.(check (option (pair int int)))
    "sequential scan skips the crashing probe" (Some (9, 81)) s;
  Alcotest.(check (option (pair int int))) "parallel scan agrees" s p

(* a probe that raises once is retried, like a restart attempt, at every
   jobs count: the scan still finds the lowest matching seed *)
let test_flaky_scan_probe () =
  let flaky () =
    let first = Atomic.make true in
    fun n ->
      if n = 8 && Atomic.exchange first false then failwith "probe blip"
      else if n * n > 50 then Some (n * n)
      else None
  in
  let s = Search.first_success ~from:0 ~count:20 ~f:(flaky ()) () in
  let p =
    fanned_out "flaky scan" (fun () ->
        Search.first_success ~jobs ~from:0 ~count:20 ~f:(flaky ()) ())
  in
  Alcotest.(check (option (pair int int)))
    "sequential scan retries the flaky probe" (Some (8, 64)) s;
  Alcotest.(check (option (pair int int))) "parallel scan agrees" s p

(* ------------------------------------------------------------------ *)
(* deadlines *)

let test_deadline_exhausts_immediately () =
  let labeled, spec, _ = counter_case () in
  let budget =
    { Search.max_attempts = 1_000; max_steps_per_attempt = 5_000;
      base_seed = 1; deadline_s = Some 0.0 }
  in
  let make ~attempt = (World.random ~seed:attempt, None) in
  let s = Search.random_restarts budget ~make ~spec ~accept:never labeled in
  let p =
    fanned_out "deadline" (fun () ->
        Search.random_restarts ~jobs budget ~make ~spec ~accept:never labeled)
  in
  List.iter
    (fun (name, (o : Search.outcome)) ->
      Alcotest.(check bool) (name ^ ": deadline hit") true
        o.Search.stats.Search.deadline_hit;
      Alcotest.(check int) (name ^ ": no attempts") 0
        o.Search.stats.Search.attempts;
      Alcotest.(check bool) (name ^ ": no result") true
        (o.Search.result = None))
    [ ("seq", s); ("par", p) ]

let test_deadline_cancels_long_attempt () =
  (* one attempt is far longer than the deadline: the interpreter's
     cooperative cancel must cut it from the inside *)
  let labeled = counter_prog ~iters:200_000 and spec = spec_out 400_000 in
  let budget =
    { Search.max_attempts = 5; max_steps_per_attempt = 100_000_000;
      base_seed = 1; deadline_s = Some 0.02 }
  in
  let make ~attempt = (World.random ~seed:attempt, None) in
  let t0 = Unix.gettimeofday () in
  let o = Search.random_restarts budget ~make ~spec ~accept:never labeled in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "deadline hit" true o.Search.stats.Search.deadline_hit;
  Alcotest.(check bool) "not success" false o.Search.stats.Search.success;
  Alcotest.(check bool) "attempt was cut short" true
    (o.Search.stats.Search.attempts <= 1);
  Alcotest.(check bool)
    (Printf.sprintf "returned promptly (%.2fs)" wall)
    true (wall < 10.)

(* the value model replays under its own small budget, but an explicit
   deadline from the caller still bounds it *)
let test_value_replay_inherits_deadline () =
  let prepared = Session.prepare Model.Value (Miniht.app ()) in
  let _, log = Session.record prepared ~seed:1 in
  let o =
    Session.replay
      ~budget:{ Search.default_budget with Search.deadline_s = Some 0. }
      prepared log
  in
  Alcotest.(check bool) "deadline hit" true o.Replayer.deadline_hit;
  Alcotest.(check bool) "no result" true (o.Replayer.result = None);
  Alcotest.(check int) "no attempts" 0 o.Replayer.attempts;
  let free = Session.replay prepared log in
  Alcotest.(check bool) "without the deadline it reproduces" true
    (free.Replayer.result <> None);
  Alcotest.(check int) "in one attempt" 1 free.Replayer.attempts

(* ------------------------------------------------------------------ *)
(* the exit-code contract (pure, no forking) *)

let test_exit_codes () =
  let r = Interp.run (counter_prog ~iters:1) (World.random ~seed:1) in
  let partial = { Search.best = r; closeness = 0.5; attempt = 1 } in
  let out ?result ?partial ?(deadline_hit = false) () =
    { Replayer.model = "x"; result; partial; attempts = 1; total_steps = 1;
      deadline_hit; incidents = [] }
  in
  let check name want got = Alcotest.(check int) name want got in
  check "reproduced" Replayer.exit_ok
    (Replayer.exit_code (out ~result:r ()));
  check "reproduced from salvaged log" Replayer.exit_salvaged
    (Replayer.exit_code ~damaged:true (out ~result:r ()));
  check "degraded to partial" Replayer.exit_partial
    (Replayer.exit_code (out ~partial ()));
  check "deadline dominates partial" Replayer.exit_deadline
    (Replayer.exit_code (out ~partial ~deadline_hit:true ()));
  check "nothing to show" Replayer.exit_deadline
    (Replayer.exit_code (out ()));
  check "salvaged and empty" Replayer.exit_salvaged
    (Replayer.exit_code ~damaged:true (out ()))

(* ------------------------------------------------------------------ *)
(* checkpoint file robustness *)

let some_checkpoint =
  {
    Checkpoint.engine = "dfs";
    base_seed = 1;
    attempt = 17;
    total_steps = 123_456;
    pruned = 9;
    prefix = Some [| 0; 3; 1 |];
    best =
      Some
        { Checkpoint.b_closeness = 0.8125; b_attempt = 4;
          b_prefix = Some [| 0; 2 |] };
  }

let test_checkpoint_roundtrip () =
  let file = Filename.temp_file "ddet_ckpt" ".ckpt" in
  Checkpoint.write file some_checkpoint;
  (match Checkpoint.load file with
  | Ok c -> Alcotest.(check bool) "roundtrip" true (c = some_checkpoint)
  | Error e -> Alcotest.fail e);
  Sys.remove file

let test_checkpoint_damage_detected () =
  let file = Filename.temp_file "ddet_ckpt" ".ckpt" in
  let write s =
    let oc = open_out_bin file in
    output_string oc s;
    close_out oc
  in
  Checkpoint.write file some_checkpoint;
  let good = In_channel.with_open_bin file In_channel.input_all in
  let damaged msg s =
    write s;
    match Checkpoint.load file with
    | Ok _ -> Alcotest.fail (msg ^ ": damage not detected")
    | Error _ -> ()
  in
  (* flip one byte in the middle of the payload *)
  let flipped = Bytes.of_string good in
  let mid = String.length good / 2 in
  Bytes.set flipped mid
    (if Bytes.get flipped mid = '0' then '1' else '0');
  damaged "bit flip" (Bytes.to_string flipped);
  damaged "truncation" (String.sub good 0 (String.length good - 10));
  damaged "empty file" "";
  damaged "wrong magic" ("ddet-log v2\n" ^ good);
  Sys.remove file

let test_resume_engine_mismatch_rejected () =
  let labeled, spec, accept = counter_case () in
  let budget =
    { Search.max_attempts = 10; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
  in
  let restarts_ckpt = { some_checkpoint with Checkpoint.engine = "restarts" } in
  (match
     Search.enumerate_inputs ~resume:restarts_ckpt budget ~spec ~accept labeled
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "engine mismatch accepted");
  let wrong_seed = { some_checkpoint with Checkpoint.base_seed = 999 } in
  match Search.dfs_schedules ~resume:wrong_seed budget ~spec ~accept labeled with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "base-seed mismatch accepted"

(* ------------------------------------------------------------------ *)
(* checkpointed seed scans *)

let test_scan_kill_resume () =
  let f n = if n * n > 50 then Some (n * n) else None in
  let full = Search.first_success ~from:0 ~count:20 ~f () in
  Alcotest.(check (option (pair int int))) "baseline" (Some (8, 64)) full;
  let file = Filename.temp_file "ddet_crash" ".ckpt" in
  ignore
    (Search.first_success
       ~checkpoint:(Checkpoint.sink ~every:1 file)
       ~from:0 ~count:4 ~f ());
  let c =
    match Checkpoint.load file with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Sys.remove file;
  List.iter
    (fun jobs ->
      let resumed =
        pooled "resumed scan" jobs (fun () ->
            Search.first_success ~jobs ~resume:c ~from:0 ~count:20 ~f ())
      in
      Alcotest.(check (option (pair int int)))
        (Printf.sprintf "resumed scan j%d" jobs)
        full resumed)
    [ 1; jobs ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "crash"
    [
      ( "kill-and-resume",
        [
          Alcotest.test_case "restarts on the adder race" `Quick
            test_restarts_kill_resume;
          Alcotest.test_case "checkpoints interchange across jobs" `Quick
            test_cross_jobs_resume;
          Alcotest.test_case "dfs on the adder race" `Quick
            test_dfs_kill_resume;
          Alcotest.test_case "input enumeration on adder" `Quick
            test_enumerate_kill_resume;
          Alcotest.test_case "failure-det driver on miniht" `Slow
            test_replayer_kill_resume_miniht;
          Alcotest.test_case "session on fault-injected cloudstore" `Slow
            test_session_kill_resume_cloudstore;
          Alcotest.test_case "real SIGKILL mid-search" `Quick
            test_sigkill_resume;
          Alcotest.test_case "checkpointed seed scan" `Quick
            test_scan_kill_resume;
          Alcotest.test_case "dfs on the racy counter" `Quick
            test_dfs_racy_counter_kill_resume;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "poisoned attempt is skipped" `Quick
            test_poisoned_attempt_skipped;
          Alcotest.test_case "flaky attempt is requeued" `Quick
            test_flaky_attempt_requeued;
          Alcotest.test_case "poisoned scan probe" `Quick
            test_poisoned_scan_probe;
          Alcotest.test_case "flaky scan probe" `Quick
            test_flaky_scan_probe;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "zero deadline exhausts immediately" `Quick
            test_deadline_exhausts_immediately;
          Alcotest.test_case "deadline cancels a long attempt" `Quick
            test_deadline_cancels_long_attempt;
          Alcotest.test_case "value replay inherits the session deadline"
            `Quick test_value_replay_inherits_deadline;
        ] );
      ( "exit-codes",
        [ Alcotest.test_case "contract" `Quick test_exit_codes ] );
      ( "checkpoint-files",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "damage detected" `Quick
            test_checkpoint_damage_detected;
          Alcotest.test_case "mismatched resume rejected" `Quick
            test_resume_engine_mismatch_rejected;
        ] );
    ]
