(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Fig. 1, Fig. 2, the Sec. 2 narratives, plus the RCSE and budget
   ablations) and runs Bechamel microbenchmarks of the actual recorders.

   Usage: main.exe [fig1|fig2|sec2|ablation|budget|flight|race|search|sanity|crash|governor|static|dist|obs|open|micro|all]
                   [--tiny] [--jobs N] [--json]

   --tiny   shrinks every budget so the command finishes in seconds (used
            by the bench-smoke alias under `dune runtest`)
   --jobs N times the search engines at N worker domains as well as at 1
   --json   (search/crash/governor/static) also writes BENCH_search.json /
            BENCH_crash.json / BENCH_governor.json / BENCH_static.json
            (static writes its JSON unconditionally when not --tiny) *)

open Ddet
open Ddet_apps
open Ddet_record

let print (r : Experiment.rendered) =
  Ddet_metrics.Report.print_section r.Experiment.title r.Experiment.body

(* ------------------------------------------------------------------ *)
(* MICRO: wall-clock cost of the recorders themselves, grounding the
   cost model's claim that entry volume drives recording cost. *)

let micro () =
  let open Bechamel in
  let app = Miniht.app () in
  let spec = app.App.spec in
  let labeled = app.App.labeled in
  let seed = 42 in
  let rcse_prepared = Session.prepare (Model.Rcse Model.Code_based) app in
  let recorders =
    [
      ("baseline", None);
      ("perfect", Some (fun () -> Full_recorder.create ()));
      ("value", Some (fun () -> Value_recorder.create ()));
      ("sync", Some (fun () -> Sync_recorder.create ()));
      ("output", Some (fun () -> Output_recorder.create ()));
      ("failure", Some (fun () -> Failure_recorder.create ()));
      ("rcse-code", Some (fun () -> rcse_prepared.Session.make_recorder ()));
    ]
  in
  let tests =
    List.map
      (fun (name, make) ->
        Test.make ~name
          (Staged.stage (fun () ->
               let world = Mvm.World.random ~seed in
               match make with
               | None -> ignore (Mvm.Interp.run labeled world)
               | Some create ->
                 ignore (Recorder.record (create ()) labeled ~spec ~world))))
      recorders
  in
  let grouped = Test.make_grouped ~name:"recorders" ~fmt:"%s/%s" tests in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let time_of label =
    match Hashtbl.find_opt results label with
    | Some o -> (
      match Analyze.OLS.estimates o with Some [ t ] -> t | _ -> nan)
    | None -> nan
  in
  let baseline = time_of "recorders/baseline" in
  (* log volumes for context *)
  let volumes =
    List.filter_map
      (fun (name, make) ->
        match make with
        | None -> None
        | Some create ->
          let _, log =
            Recorder.record (create ()) labeled ~spec
              ~world:(Mvm.World.random ~seed)
          in
          Some
            ( name,
              Log.entry_count log,
              Log.payload_bytes log,
              Cost_model.overhead Cost_model.default log ))
      recorders
  in
  let rows =
    List.map
      (fun (name, entries, bytes, modeled) ->
        let t = time_of ("recorders/" ^ name) in
        [
          name;
          Printf.sprintf "%.0f" t;
          Printf.sprintf "%.2f" (t /. baseline);
          string_of_int entries;
          string_of_int bytes;
          Printf.sprintf "%.2f" modeled;
        ])
      volumes
  in
  let body =
    Ddet_metrics.Report.table
      ~headers:
        [ "recorder"; "ns/run"; "measured x"; "entries"; "bytes"; "modeled x" ]
      rows
    ^ Printf.sprintf
        "\n\nbaseline (no recorder): %.0f ns per miniht production run.\n\
         The measured column is this harness's in-process monitoring cost:\n\
         every recorder sees every event, and selective recorders also\n\
         evaluate their selector per event, so wall-clock deltas here stay\n\
         small and reflect callback work. The modeled column instead prices\n\
         what a production implementation would pay to persist each entry\n\
         class (CREW-order schedule points, per-byte value logging - see\n\
         Cost_model) applied to the measured entry counts and bytes in this\n\
         table - which is why the experiments report modeled overhead.\n"
        baseline
  in
  Ddet_metrics.Report.print_section "MICRO recorder wall-clock vs. cost model"
    body

(* ------------------------------------------------------------------ *)
(* SEARCH: wall-clock of the inference engines. Per workload/engine: a
   sequential baseline; for random restarts, which run through the
   lock-free attempt pool, also a jobs=N row under the pool's fixed
   policy (which clamps N to the machine's cores). The DFS runs in order
   at any jobs, so it gets the sequential row only. Optionally dumps
   machine-readable results to BENCH_search.json (schema 4). *)

type search_row = {
  workload : string;
  engine : string;
  sr_jobs : int;  (** requested *)
  sr_eff : int;  (** domains actually fanned out (cap policy applied) *)
  sr_mode : string;  (** sequential | parallel | capped *)
  wall_s : float;
  stats : Ddet_replay.Search.stats;
}

(* wall time on the monotonic clock (an NTP step cannot move it), floored
   at 1 ns so a ratio of two timings never divides by zero *)
let time f =
  let t0 = Ddet_obs.Clock.now () in
  let r = f () in
  (r, max 1e-9 (Ddet_obs.Clock.s_of_ns (Ddet_obs.Clock.elapsed_ns t0)))

(* min over [trials] runs: wall-clock on a shared box is noise plus the
   true cost, and min is the estimator least polluted by the noise *)
let min_time ~trials f =
  let out = ref None and best = ref infinity in
  for _ = 1 to max 1 trials do
    let r, s = time f in
    out := Some r;
    if s < !best then best := s
  done;
  (Option.get !out, !best)

let search_bench ~tiny ~jobs ~json () =
  let open Ddet_replay in
  let open Mvm in
  let budget full small = if tiny then small else full in
  let trials = if tiny then 1 else 3 in
  let cores = Domain.recommended_domain_count () in
  let miniht = Miniht.app () in
  let cases =
    [
      ( "racy-counter",
        Experiment.racy_counter,
        Experiment.racy_counter_spec,
        budget
          { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000;
            base_seed = 1; deadline_s = None }
          { Search.max_attempts = 40; max_steps_per_attempt = 1_500;
            base_seed = 1; deadline_s = None } );
      ( "miniht",
        miniht.App.labeled,
        miniht.App.spec,
        budget
          { Search.max_attempts = 300; max_steps_per_attempt = 5_000;
            base_seed = 1; deadline_s = None }
          { Search.max_attempts = 20; max_steps_per_attempt = 1_500;
            base_seed = 1; deadline_s = None } );
    ]
  in
  (* per workload: engine runners closed over the failing log *)
  let prepared =
    List.map
      (fun (workload, labeled, spec, bud) ->
        let seed =
          let rec scan s =
            if s > 500 then invalid_arg ("no failing seed for " ^ workload)
            else
              let r =
                Mvm.Spec.apply spec
                  (Mvm.Interp.run labeled (World.random ~seed:s))
              in
              if r.Mvm.Interp.failure <> None then s else scan (s + 1)
          in
          scan 1
        in
        let _, log =
          Recorder.record (Failure_recorder.create ()) labeled ~spec
            ~world:(World.random ~seed)
        in
        let accept = Constraints.failure_matches log in
        (* (engine, runs through the attempt pool, run at jobs): the
           odometer engines run in order and take no jobs *)
        let engines =
          [
            ( "dfs", false,
              fun _ -> Search.dfs_schedules bud ~spec ~accept labeled );
            ( "restarts", true,
              fun j ->
                Search.random_restarts ~jobs:j bud
                  ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
                  ~spec ~accept labeled );
          ]
        in
        (workload, engines))
      cases
  in
  let rows =
    List.concat_map
      (fun (workload, engines) ->
        List.concat_map
          (fun (engine, pooled, run) ->
            let measure ~sr_mode j =
              let o, wall_s = min_time ~trials (fun () -> run j) in
              {
                workload; engine; sr_jobs = j;
                sr_eff = Par_search.effective_jobs ~jobs:j None;
                sr_mode; wall_s; stats = o.Search.stats;
              }
            in
            let seq = measure ~sr_mode:"sequential" 1 in
            if jobs <= 1 || not pooled then [ seq ]
            else
              let eff = Par_search.effective_jobs ~jobs None in
              [ seq;
                measure
                  ~sr_mode:(if eff < jobs then "capped" else "parallel")
                  jobs ])
          engines)
      prepared
  in
  let base r =
    List.find
      (fun b ->
        b.workload = r.workload && b.engine = r.engine
        && b.sr_mode = "sequential")
      rows
  in
  let speedup r = (base r).wall_s /. r.wall_s in
  let attempts_per_s r =
    float_of_int r.stats.Ddet_replay.Search.attempts /. r.wall_s
  in
  let ns_per_step r =
    let steps = max 1 r.stats.Ddet_replay.Search.total_steps in
    r.wall_s *. 1e9 /. float_of_int steps
  in
  let table_rows =
    List.map
      (fun r ->
        [
          r.workload; r.engine; string_of_int r.sr_jobs;
          string_of_int r.sr_eff; r.sr_mode;
          Printf.sprintf "%.3f" r.wall_s;
          (if r.stats.Ddet_replay.Search.success then "yes" else "NO");
          string_of_int r.stats.Ddet_replay.Search.attempts;
          string_of_int r.stats.Ddet_replay.Search.pruned;
          string_of_int r.stats.Ddet_replay.Search.total_steps;
          Printf.sprintf "%.0f" (attempts_per_s r);
          Printf.sprintf "%.0f" (ns_per_step r);
          Printf.sprintf "%.2f" (speedup r);
        ])
      rows
  in
  let body =
    Ddet_metrics.Report.table
      ~headers:
        [ "workload"; "engine"; "jobs"; "eff"; "mode"; "wall s"; "ok";
          "attempts"; "pruned"; "steps"; "att/s"; "ns/step"; "speedup" ]
      table_rows
    ^ Printf.sprintf
        "\n\ncores: %d (Domain.recommended_domain_count); wall s is the min\n\
         of %d runs. eff is the domain count after the pool's cores cap\n\
         (capped rows were clamped to the cores). The DFS runs in order at\n\
         any jobs. Outcomes (ok/attempts/pruned/steps) are identical at\n\
         every jobs value by construction.\n"
        cores trials
  in
  Ddet_metrics.Report.print_section "SEARCH engine wall-clock" body;
  if json then begin
    let file = "BENCH_search.json" in
    let oc = open_out file in
    let row_json r =
      Printf.sprintf
        "    { \"workload\": %S, \"engine\": %S, \"jobs\": %d, \
         \"jobs_effective\": %d, \"mode\": %S, \"wall_s\": %.6f, \
         \"success\": %b, \"attempts\": %d, \"pruned\": %d, \
         \"steps\": %d, \"attempts_per_s\": %.1f, \
         \"ns_per_step\": %.1f, \"speedup_vs_1\": %.3f }"
        r.workload r.engine r.sr_jobs r.sr_eff r.sr_mode r.wall_s
        r.stats.Ddet_replay.Search.success r.stats.Ddet_replay.Search.attempts
        r.stats.Ddet_replay.Search.pruned
        r.stats.Ddet_replay.Search.total_steps (attempts_per_s r)
        (ns_per_step r) (speedup r)
    in
    let t = Par_search.default_tuning in
    Printf.fprintf oc
      "{\n  \"schema\": 4,\n  \"cores\": %d,\n  \"jobs\": %d,\n\
       \  \"tiny\": %b,\n  \"trials\": %d,\n\
       \  \"policy\": \"the pool's fixed policy caps jobs at cores \
       (capped rows); the dfs runs in order at any jobs (sequential rows \
       only)\",\n\
       \  \"pool\": { \"chunk\": %d, \"window_per_job\": %d, \
       \"spawn_cost_steps\": %d },\n\
       \  \"rows\": [\n%s\n  ]\n}\n"
      cores jobs tiny trials t.Par_search.chunk t.Par_search.window_per_job
      t.Par_search.spawn_cost_steps
      (String.concat ",\n" (List.map row_json rows));
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* ------------------------------------------------------------------ *)
(* SANITY: the CI tripwire behind the perf-sanity alias. On smoke
   budgets, random restarts at jobs=4 under the pool's fixed policy
   (cores cap on) must stay within 2x of sequential wall-clock and
   byte-identical in outcome. Like every replay driver, the search gets
   the recorded run's base_steps as its attempt-cost estimate, so the
   min-work heuristic decides where the attempts run exactly as it does
   in the product; on a small box the cores cap clamps jobs, on a big
   one the tripwire catches a scheduler regression. Exits 1 on
   violation. *)

let sanity () =
  let open Ddet_replay in
  let open Mvm in
  let miniht = Miniht.app () in
  let bud =
    { Search.max_attempts = 60; max_steps_per_attempt = 2_000;
      base_seed = 1; deadline_s = None }
  in
  let cases =
    [
      ("racy-counter", Experiment.racy_counter, Experiment.racy_counter_spec);
      ("miniht", miniht.App.labeled, miniht.App.spec);
    ]
  in
  let same (a : Search.outcome) (b : Search.outcome) =
    a.Search.result = b.Search.result
    && a.Search.partial = b.Search.partial
    && a.Search.stats.Search.attempts = b.Search.stats.Search.attempts
    && a.Search.stats.Search.total_steps = b.Search.stats.Search.total_steps
    && a.Search.stats.Search.pruned = b.Search.stats.Search.pruned
  in
  let violations = ref 0 in
  List.iter
    (fun (workload, labeled, spec) ->
      let seed =
        let rec scan s =
          if s > 500 then invalid_arg ("no failing seed for " ^ workload)
          else
            let r =
              Mvm.Spec.apply spec
                (Mvm.Interp.run labeled (World.random ~seed:s))
            in
            if r.Mvm.Interp.failure <> None then s else scan (s + 1)
        in
        scan 1
      in
      let _, log =
        Recorder.record (Failure_recorder.create ()) labeled ~spec
          ~world:(World.random ~seed)
      in
      let accept = Constraints.failure_matches log in
      let engines =
        [
          ( "restarts",
            fun j ->
              Search.random_restarts ~jobs:j
                ~est_attempt_steps:log.Log.base_steps bud
                ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
                ~spec ~accept labeled );
        ]
      in
      List.iter
        (fun (engine, run) ->
          let seq, seq_s = min_time ~trials:3 (fun () -> run 1) in
          let par, par_s = min_time ~trials:3 (fun () -> run 4) in
          let parity = same seq par in
          (* 10ms absolute slack: sub-millisecond walls are all noise *)
          let fast_enough = par_s <= (2.0 *. seq_s) +. 0.010 in
          Printf.printf
            "%-14s %-11s seq %.4fs  jobs=4 %.4fs (%.2fx)  parity %s  %s\n"
            workload engine seq_s par_s (par_s /. seq_s)
            (if parity then "yes" else "NO")
            (if parity && fast_enough then "ok" else "VIOLATION");
          if not (parity && fast_enough) then incr violations)
        engines)
    cases;
  if !violations > 0 then begin
    Printf.eprintf "perf-sanity: %d violation(s)\n" !violations;
    exit 1
  end;
  Printf.printf "perf-sanity: ok (cores: %d)\n"
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* CRASH: checkpoint overhead and resume cost. Measures the wall-clock
   tax of ticking a checkpoint sink at several intervals, then simulates
   a kill at half the search (truncated budget + flushed frontier — the
   same file a SIGKILL leaves behind), resumes, and checks the resumed
   outcome is identical to the uninterrupted run's. *)

type crash_row = {
  cr_workload : string;
  cr_engine : string;
  plain_s : float;  (** no checkpointing *)
  ckpt1_s : float;  (** sink writing every judged attempt *)
  ckpt32_s : float;  (** sink at the default interval *)
  killed_s : float;  (** first half, up to the simulated kill *)
  resume_s : float;  (** second half, resumed from the checkpoint *)
  parity : bool;  (** resumed outcome = uninterrupted outcome *)
  cr_attempts : int;
}

let crash_bench ~tiny ~json () =
  let open Ddet_replay in
  let open Mvm in
  let budget full small = if tiny then small else full in
  let miniht = Miniht.app () in
  let cases =
    [
      ( "racy-counter",
        Experiment.racy_counter,
        Experiment.racy_counter_spec,
        budget
          { Search.max_attempts = 3_000; max_steps_per_attempt = 5_000;
            base_seed = 1; deadline_s = None }
          { Search.max_attempts = 40; max_steps_per_attempt = 1_500;
            base_seed = 1; deadline_s = None } );
      ( "miniht",
        miniht.App.labeled,
        miniht.App.spec,
        budget
          { Search.max_attempts = 300; max_steps_per_attempt = 5_000;
            base_seed = 1; deadline_s = None }
          { Search.max_attempts = 20; max_steps_per_attempt = 1_500;
            base_seed = 1; deadline_s = None } );
    ]
  in
  (* the outcome, not the run's buffers: [=] on results would also
     compare the trace's spare capacity, which depends on how warm the
     search's arena was when the run happened *)
  let same (a : Search.outcome) (b : Search.outcome) =
    let run (r : Interp.result) =
      ( r.Interp.status, r.Interp.steps, Trace.events r.Interp.trace,
        r.Interp.outputs, r.Interp.failure )
    in
    let partial (p : Search.partial) =
      (p.Search.closeness, p.Search.attempt, run p.Search.best)
    in
    a.Search.stats = b.Search.stats
    && Option.map run a.Search.result = Option.map run b.Search.result
    && Option.map partial a.Search.partial = Option.map partial b.Search.partial
  in
  let rows =
    List.concat_map
      (fun (cr_workload, labeled, spec, bud) ->
        let seed =
          let rec scan s =
            if s > 500 then invalid_arg ("no failing seed for " ^ cr_workload)
            else
              let r =
                Mvm.Spec.apply spec
                  (Mvm.Interp.run labeled (World.random ~seed:s))
              in
              if r.Mvm.Interp.failure <> None then s else scan (s + 1)
          in
          scan 1
        in
        let _, log =
          Recorder.record (Failure_recorder.create ()) labeled ~spec
            ~world:(World.random ~seed)
        in
        let accept = Constraints.failure_matches log in
        let engines :
            (string
            * (?checkpoint:Checkpoint.sink ->
               ?resume:Checkpoint.t ->
               Search.budget ->
               Search.outcome))
            list =
          [
            ( "restarts",
              fun ?checkpoint ?resume b ->
                Search.random_restarts ?checkpoint ?resume b
                  ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
                  ~spec ~accept labeled );
            ( "dfs",
              fun ?checkpoint ?resume b ->
                Search.dfs_schedules ?checkpoint ?resume b ~spec ~accept
                  labeled );
          ]
        in
        List.map
          (fun
            ( cr_engine,
              (run :
                ?checkpoint:Checkpoint.sink ->
                ?resume:Checkpoint.t ->
                Search.budget ->
                Search.outcome) )
          ->
            let plain, plain_s = time (fun () -> run bud) in
            let ckpt_file = Filename.temp_file "ddet_bench" ".ckpt" in
            let timed_sink every =
              let _, s =
                time (fun () ->
                    run ~checkpoint:(Checkpoint.sink ~every ckpt_file) bud)
              in
              s
            in
            let ckpt1_s = timed_sink 1 in
            let ckpt32_s = timed_sink 32 in
            (* simulated kill: a truncated budget that exhausts and
               flushes its frontier — exactly the file the periodic sink
               leaves after a SIGKILL at that point. Kill strictly before
               the hit (or at half the attempts when the search never
               hits); a search that hits on attempt 1 has no mid-flight
               frontier to crash at, so skip the kill for it. *)
            let kill_at =
              if plain.Search.stats.Search.success then
                plain.Search.stats.Search.attempts - 1
              else plain.Search.stats.Search.attempts / 2
            in
            let killed_s, resume_s, parity =
              if kill_at < 1 then (0., 0., true)
              else begin
                let _, killed_s =
                  time (fun () ->
                      run
                        ~checkpoint:(Checkpoint.sink ~every:1 ckpt_file)
                        { bud with Search.max_attempts = kill_at })
                in
                let c =
                  match Checkpoint.load ckpt_file with
                  | Ok c -> c
                  | Error e -> invalid_arg ("bench checkpoint: " ^ e)
                in
                let resumed, resume_s = time (fun () -> run ~resume:c bud) in
                (killed_s, resume_s, same plain resumed)
              end
            in
            Sys.remove ckpt_file;
            {
              cr_workload;
              cr_engine;
              plain_s;
              ckpt1_s;
              ckpt32_s;
              killed_s;
              resume_s;
              parity;
              cr_attempts = plain.Search.stats.Search.attempts;
            })
          engines)
      cases
  in
  let pct over base = 100. *. ((over /. base) -. 1.) in
  let table_rows =
    List.map
      (fun r ->
        [
          r.cr_workload; r.cr_engine; string_of_int r.cr_attempts;
          Printf.sprintf "%.3f" r.plain_s;
          Printf.sprintf "%+.1f%%" (pct r.ckpt1_s r.plain_s);
          Printf.sprintf "%+.1f%%" (pct r.ckpt32_s r.plain_s);
          Printf.sprintf "%.3f" r.killed_s;
          Printf.sprintf "%.3f" r.resume_s;
          Printf.sprintf "%+.1f%%"
            (pct (r.killed_s +. r.resume_s) r.plain_s);
          (if r.parity then "yes" else "NO");
        ])
      rows
  in
  let body =
    Ddet_metrics.Report.table
      ~headers:
        [ "workload"; "engine"; "attempts"; "plain s"; "every=1"; "every=32";
          "killed s"; "resume s"; "kill+resume"; "parity" ]
      table_rows
    ^ "\n\nevery=N columns: wall-clock overhead of a checkpoint sink that\n\
       writes every Nth judged attempt, vs. the same search with no sink.\n\
       killed/resume: the search is cut at half its attempts (truncated\n\
       budget flushing its frontier - byte-identical to the file a SIGKILL\n\
       leaves), then resumed to completion; kill+resume is the total\n\
       wall-clock tax of crashing once. parity: the resumed outcome\n\
       (search stats; status, steps, events, outputs and failure of the\n\
       result and the partial) equals the uninterrupted run's.\n"
  in
  Ddet_metrics.Report.print_section "CRASH checkpoint overhead and resume"
    body;
  if json then begin
    let file = "BENCH_crash.json" in
    let oc = open_out file in
    let row_json r =
      Printf.sprintf
        "    { \"workload\": %S, \"engine\": %S, \"attempts\": %d, \
         \"plain_s\": %.6f, \"ckpt_every1_s\": %.6f, \
         \"ckpt_every32_s\": %.6f, \"killed_s\": %.6f, \
         \"resume_s\": %.6f, \"parity\": %b }"
        r.cr_workload r.cr_engine r.cr_attempts r.plain_s r.ckpt1_s
        r.ckpt32_s r.killed_s r.resume_s r.parity
    in
    Printf.fprintf oc "{\n  \"tiny\": %b,\n  \"rows\": [\n%s\n  ]\n}\n" tiny
      (String.concat ",\n" (List.map row_json rows));
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* ------------------------------------------------------------------ *)
(* GOVERNOR: the overhead SLO in action. Record the failing miniht run
   under several budgets, with the ungoverned recording as control, and
   check the acceptance criterion end to end: measured overhead within
   budget AND the original failure still reproducing from the governed
   log, with the honest DF floor reported per degraded window. *)

type gv_row = {
  gv_model : string;
  gv_budget : float;
  gv_control : float;  (* ungoverned overhead, same model/seed *)
  gv_overhead : float;
  gv_within : bool;
  gv_windows : int;
  gv_entries : int;
  gv_control_entries : int;
  gv_reproduced : bool;
  gv_df : float;
  gv_df_floor : float;
  gv_attempts : int;
}

let governor_bench ~tiny ~json () =
  let miniht = Miniht.app () in
  let seed = 1 (* the seed scan's first failing miniht seed *) in
  let models =
    if tiny then [ Model.Perfect ] else [ Model.Perfect; Model.Sync ]
  in
  let budgets = if tiny then [ 1.3 ] else [ 1.2; 1.3; 1.5; 2.0 ] in
  let record ?budget:overhead_budget model =
    let config = { Config.default with Config.overhead_budget } in
    let prepared = Session.prepare ~config model miniht in
    let original, log = Session.record prepared ~seed in
    (prepared, original, log)
  in
  let rows =
    List.concat_map
      (fun model ->
        let _, _, control_log = record model in
        let gv_control =
          Ddet_record.Cost_model.overhead Ddet_record.Cost_model.default
            control_log
        in
        List.map
          (fun b ->
            let prepared, original, log = record ~budget:b model in
            let gv_overhead =
              Ddet_record.Cost_model.overhead Ddet_record.Cost_model.default
                log
            in
            let outcome = Session.replay prepared log in
            let a = Session.assess prepared ~original ~log outcome in
            let reproduced =
              match outcome.Ddet_replay.Replayer.result with
              | Some r -> Ddet_replay.Constraints.failure_matches log r
              | None -> false
            in
            {
              gv_model = Model.name model;
              gv_budget = b;
              gv_control;
              gv_overhead;
              gv_within = gv_overhead <= b +. 1e-9;
              gv_windows = a.Ddet_metrics.Utility.governed_windows;
              gv_entries = Ddet_record.Log.entry_count log;
              gv_control_entries = Ddet_record.Log.entry_count control_log;
              gv_reproduced = reproduced;
              gv_df = a.Ddet_metrics.Utility.df;
              gv_df_floor =
                Option.value ~default:0.
                  a.Ddet_metrics.Utility.df_floor;
              gv_attempts = outcome.Ddet_replay.Replayer.attempts;
            })
          budgets)
      models
  in
  let table_rows =
    List.map
      (fun r ->
        [
          r.gv_model;
          Printf.sprintf "%.1fx" r.gv_budget;
          Printf.sprintf "%.2fx" r.gv_control;
          Printf.sprintf "%.2fx" r.gv_overhead;
          (if r.gv_within then "yes" else "NO");
          string_of_int r.gv_windows;
          Printf.sprintf "%d/%d" r.gv_entries r.gv_control_entries;
          (if r.gv_reproduced then "yes" else "NO");
          Printf.sprintf "%.2f (floor %.2f)" r.gv_df r.gv_df_floor;
          string_of_int r.gv_attempts;
        ])
      rows
  in
  let body =
    Ddet_metrics.Report.table
      ~headers:
        [ "model"; "budget"; "control"; "governed"; "within"; "windows";
          "entries"; "reproduced"; "DF"; "attempts" ]
      table_rows
    ^ "\n\ncontrol: the same recording with no budget. within: measured\n\
       Cost_model overhead of the governed log lands inside the SLO.\n\
       reproduced: the governed log's search replay reproduces the\n\
       original failure. DF is the measured fidelity with the honest\n\
       1/n floor the degraded windows impose.\n"
  in
  Ddet_metrics.Report.print_section "GOVERNOR overhead SLO" body;
  if json then begin
    let file = "BENCH_governor.json" in
    let oc = open_out file in
    let row_json r =
      Printf.sprintf
        "    { \"model\": %S, \"budget\": %.2f, \"control_overhead\": %.4f, \
         \"governed_overhead\": %.4f, \"within_budget\": %b, \
         \"governed_windows\": %d, \"entries\": %d, \
         \"control_entries\": %d, \"reproduced\": %b, \"df\": %.4f, \
         \"df_floor\": %.4f, \"attempts\": %d }"
        r.gv_model r.gv_budget r.gv_control r.gv_overhead r.gv_within
        r.gv_windows r.gv_entries r.gv_control_entries r.gv_reproduced
        r.gv_df r.gv_df_floor r.gv_attempts
    in
    Printf.fprintf oc "{\n  \"tiny\": %b,\n  \"rows\": [\n%s\n  ]\n}\n" tiny
      (String.concat ",\n" (List.map row_json rows));
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* ------------------------------------------------------------------ *)
(* STATIC: cost and payoff of the static analysis suite. Three
   measurements on the ABL-RACE workloads: (1) analysis wall-time per
   program — the whole suite runs before any execution, so this is its
   entire cost; (2) recording overhead of the static suspect-site
   trigger vs the sampling race-detector trigger vs full value
   determinism, each with a replay-reproduction check on the failing
   workloads; (3) failure-determinism search attempts with and without
   the static site-priority hint. *)

let static_bench ~tiny ~json () =
  let open Ddet_replay in
  let open Ddet_analysis in
  let open Ddet_static in
  let open Mvm in
  (* the race-free half of ABL-RACE: the lock-protected counter
     (Experiment keeps its copy private, so the shape is rebuilt here) *)
  let locked_counter =
    let open Mvm.Dsl in
    program ~name:"locked-counter"
      ~regions:[ scalar "c" (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [
        func "main" []
          [
            spawn "w" []; spawn "w" [];
            recv "d1" "done"; recv "d2" "done";
            lock "m"; assign "r" (g "c"); unlock "m"; output "out" (v "r");
          ];
        func "w" []
          [
            for_ "k" (i 0) (i 6)
              [ lock "m"; assign "t" (g "c"); store_g "c" (v "t" +: i 1);
                unlock "m" ];
            send "done" (i 1);
          ];
      ]
  in
  let failing_seed (app : App.t) =
    match Workload.find_failing_seed app with
    | Some (seed, _) -> seed
    | None -> invalid_arg ("no failing seed for " ^ app.App.name)
  in
  let msg = Msg_server.app () and mini = Miniht.app () in
  (* 1: analysis wall-time per program *)
  let reps = if tiny then 5 else 100 in
  let analysis_programs =
    [ ("locked-counter", locked_counter) ]
    @ List.map
        (fun (a : App.t) -> (a.App.name, a.App.labeled))
        [ Adder.app (); Bufover.app (); msg; mini; Cloudstore.app () ]
    @ List.init 3 (fun s ->
          ( Printf.sprintf "proggen-%d" s,
            Proggen.generate Proggen.default (Prng.create s) ))
  in
  let analysis_rows =
    List.map
      (fun (name, labeled) ->
        let report = Static_report.analyze labeled in
        let _, wall =
          time (fun () ->
              for _ = 1 to reps do
                ignore (Static_report.analyze labeled)
              done)
        in
        let lints = Static_report.lints report in
        let errors = List.length (Lint.errors lints) in
        ( name,
          wall *. 1e3 /. float_of_int reps,
          List.length (Static_report.races report),
          List.length (Static_report.suspect_sids report),
          errors,
          List.length lints - errors ))
      analysis_programs
  in
  Ddet_metrics.Report.print_section "STATIC analysis wall-time"
    (Ddet_metrics.Report.table
       ~headers:
         [ "program"; "ms/analysis"; "race cands"; "suspect sids"; "lint err";
           "lint warn" ]
       (List.map
          (fun (name, ms, cands, sids, errs, warns) ->
            [
              name; Printf.sprintf "%.3f" ms; string_of_int cands;
              string_of_int sids; string_of_int errs; string_of_int warns;
            ])
          analysis_rows));
  (* 2: ABL-RACE recording overhead, with reproduction checks *)
  let budget full small = if tiny then small else full in
  let replay_budget =
    budget
      { Search.max_attempts = 200; max_steps_per_attempt = 20_000;
        base_seed = 1; deadline_s = None }
      { Search.max_attempts = 30; max_steps_per_attempt = 4_000;
        base_seed = 1; deadline_s = None }
  in
  let abl_cases =
    [
      ("locked-counter", locked_counter, Spec.accept_all, 5, false);
      ("msg_server", msg.App.labeled, msg.App.spec, failing_seed msg, true);
      ("miniht", mini.App.labeled, mini.App.spec, failing_seed mini, true);
    ]
  in
  let overhead_rows =
    List.concat_map
      (fun (workload, labeled, spec, seed, failing) ->
        let report = Static_report.analyze labeled in
        let recorders =
          [
            ( "rcse+static-sites",
              (fun () ->
                Rcse_recorder.create (Static_report.site_selector report)),
              `Rcse );
            ( "rcse+static-trigger",
              (fun () ->
                Rcse_recorder.create (Static_report.trigger_selector report)),
              `Rcse );
            ( "rcse+sampling-trigger",
              (fun () ->
                Rcse_recorder.create
                  (Trigger.selector ~sticky:true
                     [
                       Trigger.of_race_detector
                         (Race_detector.create Race_detector.default_config);
                     ])),
              `Rcse );
            ("value-det", (fun () -> Value_recorder.create ()), `Value);
          ]
        in
        List.map
          (fun (recorder, create, kind) ->
            let original, log =
              Recorder.record (create ()) labeled ~spec
                ~world:(World.random ~seed)
            in
            let reproduced =
              if not failing then "-"
              else begin
                assert (original.Interp.failure <> None);
                let o =
                  match kind with
                  | `Rcse ->
                    Replayer.rcse ~budget:replay_budget ~strict:false labeled
                      ~spec log
                  | `Value ->
                    Replayer.value_det ~budget:replay_budget labeled ~spec log
                in
                if o.Replayer.result <> None then "yes" else "NO"
              end
            in
            ( workload, recorder,
              Ddet_record.Cost_model.(overhead default log),
              Log.entry_count log, Log.payload_bytes log, reproduced ))
          recorders)
      abl_cases
  in
  Ddet_metrics.Report.print_section "STATIC ABL-RACE recording overhead"
    (Ddet_metrics.Report.table
       ~headers:
         [ "workload"; "recorder"; "overhead"; "entries"; "bytes";
           "reproduces" ]
       (List.map
          (fun (w, r, ov, entries, bytes, repro) ->
            [
              w; r; Printf.sprintf "%.3fx" ov; string_of_int entries;
              string_of_int bytes; repro;
            ])
          overhead_rows)
     ^ "\n\nThe static selectors need no runtime detector: suspect sites come\n\
        from the lockset analysis, so the race-free workload records (and\n\
        pays) nothing at all. The site-granular selector logs interleaving\n\
        only at the suspect accesses themselves — enough to pin the racing\n\
        order — where the sticky trigger records everything from the first\n\
        suspect access onward and value determinism pays for the whole\n\
        data plane everywhere.\n");
  (* 3: search attempts saved by the site-priority hint *)
  let search_budget =
    budget
      { Search.max_attempts = 500; max_steps_per_attempt = 20_000;
        base_seed = 1; deadline_s = None }
      { Search.max_attempts = 40; max_steps_per_attempt = 4_000;
        base_seed = 1; deadline_s = None }
  in
  let priority_rows =
    List.map
      (fun ((app : App.t), seed) ->
        let report = Static_report.analyze app.App.labeled in
        let priority =
          { Search.sids = Static_report.suspect_sids report }
        in
        let _, log =
          Recorder.record (Failure_recorder.create ()) app.App.labeled
            ~spec:app.App.spec ~world:(World.random ~seed)
        in
        let uniform =
          Replayer.failure_det ~budget:search_budget app.App.labeled
            ~spec:app.App.spec log
        in
        let hinted =
          Replayer.failure_det ~budget:search_budget ~priority app.App.labeled
            ~spec:app.App.spec log
        in
        ( app.App.name,
          List.length priority.Search.sids,
          (uniform.Replayer.result <> None, uniform.Replayer.attempts),
          (hinted.Replayer.result <> None, hinted.Replayer.attempts) ))
      [ (msg, failing_seed msg); (mini, failing_seed mini) ]
  in
  Ddet_metrics.Report.print_section "STATIC site-priority search"
    (Ddet_metrics.Report.table
       ~headers:
         [ "workload"; "suspect sids"; "uniform ok"; "uniform attempts";
           "hinted ok"; "hinted attempts" ]
       (List.map
          (fun (w, sids, (uok, uat), (hok, hat)) ->
            [
              w; string_of_int sids; (if uok then "yes" else "NO");
              string_of_int uat; (if hok then "yes" else "NO");
              string_of_int hat;
            ])
          priority_rows));
  (* 4: the cross-node layer — message-flow analysis cost on the
     node-mapped apps, and lost-node partial-evidence search with vs
     without static steering (same stitched evidence, same budget) *)
  let node_apps =
    [
      (msg, "seed=5,partition:server+p0|p1:10-80");
      ( Cloudstore.app (),
        "seed=2,partition:coord+primary+client0+client1|secondary:50-400" );
    ]
  in
  let msgflow_rows =
    List.map
      (fun ((a : App.t), _) ->
        let map = Option.get a.App.nodes in
        let report = Static_report.analyze ~nodes:map a.App.labeled in
        let _, wall =
          time (fun () ->
              for _ = 1 to reps do
                ignore (Static_report.analyze ~nodes:map a.App.labeled)
              done)
        in
        let flow = Option.get (Static_report.msgflow report) in
        let comm_findings =
          List.filter
            (fun (f : Lint.finding) ->
              String.length f.Lint.rule >= 5
              && String.sub f.Lint.rule 0 5 = "comm-")
            (Static_report.lints report)
        in
        ( a.App.name,
          wall *. 1e3 /. float_of_int reps,
          List.length (Msgflow.channels flow),
          List.length (Msgflow.cross_edges flow),
          List.length comm_findings ))
      node_apps
  in
  Ddet_metrics.Report.print_section "STATIC cross-node analysis wall-time"
    (Ddet_metrics.Report.table
       ~headers:
         [ "app"; "ms/analysis"; "channels"; "cross edges"; "comm findings" ]
       (List.map
          (fun (name, ms, chans, edges, comms) ->
            [
              name; Printf.sprintf "%.3f" ms; string_of_int chans;
              string_of_int edges; string_of_int comms;
            ])
          msgflow_rows));
  let steer_budget =
    budget
      { Search.max_attempts = 400; max_steps_per_attempt = 50_000;
        base_seed = 1; deadline_s = None }
      { Search.max_attempts = 60; max_steps_per_attempt = 20_000;
        base_seed = 1; deadline_s = None }
  in
  let store = Ddet_record.Store.default () in
  let steered_rows =
    List.concat_map
      (fun ((app : App.t), plan_s) ->
        let plan =
          match Fault.of_string plan_s with Ok p -> p | Error e -> invalid_arg e
        in
        let prepared = Session.prepare Model.Perfect app in
        let report = Option.get (Session.static_report prepared) in
        let rec scan seed =
          if seed > 100 then invalid_arg ("no failing seed for " ^ app.App.name)
          else
            let original, log, causal =
              Session.record_dist ~faults:plan prepared ~seed
            in
            if
              original.Interp.failure <> None
              && original.Interp.steps < 20_000
            then (log, causal)
            else scan (seed + 1)
        in
        let log, causal = scan 1 in
        let base = Filename.temp_file "ddet_bench" ".steer" in
        Sys.remove base;
        ignore (Ddet_record.Sharded_log.save_via store ~base ~causal log);
        List.map
          (fun node ->
            let loaded =
              match Ddet_record.Sharded_log.load ~lose:[ node ] base with
              | Ok l -> l
              | Error e -> invalid_arg e
            in
            let st = Stitch.stitch loaded in
            let run ?steer () =
              Replayer.stitched ~budget:steer_budget ?steer app.App.labeled
                ~spec:app.App.spec st
            in
            let plain = run () in
            let steered =
              run ~steer:(Static_report.steer report ~lost:st.Stitch.lost) ()
            in
            ( app.App.name, node,
              (plain.Replayer.result <> None, plain.Replayer.attempts),
              (steered.Replayer.result <> None, steered.Replayer.attempts) ))
          (Mvm.Node.nodes (Option.get app.App.nodes)))
      node_apps
  in
  Ddet_metrics.Report.print_section "STATIC steered lost-node search"
    (Ddet_metrics.Report.table
       ~headers:
         [ "app"; "lost"; "uninformed ok"; "uninformed attempts";
           "steered ok"; "steered attempts" ]
       (List.map
          (fun (w, lost, (uok, uat), (sok, sat)) ->
            [
              w; lost; (if uok then "yes" else "NO"); string_of_int uat;
              (if sok then "yes" else "NO"); string_of_int sat;
            ])
          steered_rows)
     ^ "\n\nSame stitched partial evidence and search budget; the steered\n\
        runs bias the lost nodes' free decision points toward the sites\n\
        that statically reach a survivor (and pin inputs of threads that\n\
        provably reach none).\n");
  if json || not tiny then begin
    let file = "BENCH_static.json" in
    let oc = open_out file in
    let analysis_json =
      String.concat ",\n"
        (List.map
           (fun (name, ms, cands, sids, errs, warns) ->
             Printf.sprintf
               "    { \"program\": %S, \"ms_per_analysis\": %.4f, \
                \"race_candidates\": %d, \"suspect_sids\": %d, \
                \"lint_errors\": %d, \"lint_warnings\": %d }"
               name ms cands sids errs warns)
           analysis_rows)
    in
    let overhead_json =
      String.concat ",\n"
        (List.map
           (fun (w, r, ov, entries, bytes, repro) ->
             Printf.sprintf
               "    { \"workload\": %S, \"recorder\": %S, \
                \"overhead\": %.4f, \"entries\": %d, \"payload_bytes\": %d, \
                \"reproduces\": %S }"
               w r ov entries bytes repro)
           overhead_rows)
    in
    let priority_json =
      String.concat ",\n"
        (List.map
           (fun (w, sids, (uok, uat), (hok, hat)) ->
             Printf.sprintf
               "    { \"workload\": %S, \"suspect_sids\": %d, \
                \"uniform_success\": %b, \"uniform_attempts\": %d, \
                \"hinted_success\": %b, \"hinted_attempts\": %d }"
               w sids uok uat hok hat)
           priority_rows)
    in
    let msgflow_json =
      String.concat ",\n"
        (List.map
           (fun (name, ms, chans, edges, comms) ->
             Printf.sprintf
               "    { \"app\": %S, \"ms_per_analysis\": %.4f, \
                \"channels\": %d, \"cross_edges\": %d, \
                \"comm_findings\": %d }"
               name ms chans edges comms)
           msgflow_rows)
    in
    let steered_json =
      String.concat ",\n"
        (List.map
           (fun (w, lost, (uok, uat), (sok, sat)) ->
             Printf.sprintf
               "    { \"app\": %S, \"lost\": %S, \
                \"uninformed_success\": %b, \"uninformed_attempts\": %d, \
                \"steered_success\": %b, \"steered_attempts\": %d }"
               w lost uok uat sok sat)
           steered_rows)
    in
    Printf.fprintf oc
      "{\n  \"tiny\": %b,\n  \"analysis\": [\n%s\n  ],\n\
       \  \"overhead\": [\n%s\n  ],\n  \"priority_search\": [\n%s\n  ],\n\
       \  \"msgflow\": [\n%s\n  ],\n  \"steered_search\": [\n%s\n  ]\n}\n"
      tiny analysis_json overhead_json priority_json msgflow_json steered_json;
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* ------------------------------------------------------------------ *)
(* DIST: the cost of distributed evidence. Two measurements on the apps
   with node maps: (1) write overhead of per-node sharding (N shard
   writes + the causal manifest) vs one monolithic atomic write of the
   same log; (2) partial-evidence replay cost as a function of how many
   node shards were lost — attempts, inference steps and wall-clock,
   from complete evidence (the model's own replay) down to every
   surviving subset the stitcher can be handed. Always writes
   BENCH_dist.json: the JSON is the artifact CI tracks. *)

type dist_replay_row = {
  dd_app : string;
  dd_lost : string list;
  dd_reproduced : bool;
  dd_attempts : int;
  dd_steps : int;
  dd_wall : float;
}

let dist_bench ~tiny ~json:_ () =
  let open Ddet_replay in
  let reps = if tiny then 5 else 50 in
  let bud =
    if tiny then
      { Search.max_attempts = 60; max_steps_per_attempt = 20_000;
        base_seed = 1; deadline_s = None }
    else
      { Search.max_attempts = 400; max_steps_per_attempt = 50_000;
        base_seed = 1; deadline_s = None }
  in
  let cases =
    [
      (Msg_server.app (), "seed=5,partition:server+p0|p1:10-80");
      ( Cloudstore.app (),
        "seed=2,partition:coord+primary+client0+client1|secondary:50-400" );
    ]
  in
  let store = Ddet_record.Store.default () in
  let results =
    List.map
      (fun ((app : App.t), plan_s) ->
        let plan =
          match Mvm.Fault.of_string plan_s with
          | Ok p -> p
          | Error e -> invalid_arg e
        in
        let prepared = Session.prepare Model.Perfect app in
        let rec scan seed =
          if seed > 100 then invalid_arg ("no failing seed for " ^ app.App.name)
          else
            let original, log, causal =
              Session.record_dist ~faults:plan prepared ~seed
            in
            if
              original.Mvm.Interp.failure <> None
              && original.Mvm.Interp.steps < 20_000
            then (original, log, causal)
            else scan (seed + 1)
        in
        let _original, log, causal = scan 1 in
        let base = Filename.temp_file "ddet_bench" ".dist" in
        Sys.remove base;
        (* write overhead: monolithic atomic write vs the full shard set *)
        let mono = Ddet_record.Log_io.to_string log in
        let _, mono_s =
          min_time ~trials:3 (fun () ->
              for _ = 1 to reps do
                ignore
                  (Ddet_record.Store.atomic_write store (base ^ ".log") mono)
              done)
        in
        let _, shard_s =
          min_time ~trials:3 (fun () ->
              for _ = 1 to reps do
                ignore (Ddet_record.Sharded_log.save_via store ~base ~causal log)
              done)
        in
        let file_size p = if Sys.file_exists p then (Unix.stat p).Unix.st_size else 0 in
        let map = Option.get app.App.nodes in
        let nodes = Mvm.Node.nodes map in
        let shard_bytes =
          file_size (base ^ ".causal")
          + List.fold_left
              (fun acc n -> acc + file_size (base ^ "." ^ n ^ ".shard"))
              0 nodes
        in
        (* replay cost by lost-node count: none, each singleton, and the
           heaviest double loss (the first two nodes) *)
        let lose_sets =
          ([] :: List.map (fun n -> [ n ]) nodes)
          @ (match nodes with a :: b :: _ -> [ [ a; b ] ] | _ -> [])
        in
        let replay_rows =
          List.map
            (fun lose ->
              let loaded =
                match Ddet_record.Sharded_log.load ~lose base with
                | Ok l -> l
                | Error e -> invalid_arg e
              in
              let st = Stitch.stitch loaded in
              let o, dd_wall =
                time (fun () -> Session.replay_stitched ~budget:bud prepared st)
              in
              {
                dd_app = app.App.name;
                dd_lost = lose;
                dd_reproduced = o.Replayer.result <> None;
                dd_attempts = o.Replayer.attempts;
                dd_steps = o.Replayer.total_steps;
                dd_wall;
              })
            lose_sets
        in
        ( app.App.name, String.length mono, shard_bytes,
          mono_s /. float_of_int reps, shard_s /. float_of_int reps,
          replay_rows ))
      cases
  in
  let write_rows =
    List.map
      (fun (name, mono_b, shard_b, mono_s, shard_s, _) ->
        [
          name; string_of_int mono_b; string_of_int shard_b;
          Printf.sprintf "%.1f" (mono_s *. 1e6);
          Printf.sprintf "%.1f" (shard_s *. 1e6);
          Printf.sprintf "%.2f" (shard_s /. mono_s);
        ])
      results
  in
  Ddet_metrics.Report.print_section "DIST shard-write overhead"
    (Ddet_metrics.Report.table
       ~headers:
         [ "app"; "mono bytes"; "shard bytes"; "mono us"; "shards us";
           "ratio" ]
       write_rows
    ^ "\n\nOne monolithic atomic write vs one ddet-log shard per node plus\n\
       the causal manifest, same recording, through the same store. The\n\
       byte delta is the replicated header and per-line CRCs; the time\n\
       ratio is the price of independently losable evidence.\n");
  let all_replay = List.concat_map (fun (_, _, _, _, _, r) -> r) results in
  Ddet_metrics.Report.print_section "DIST partial-evidence replay cost"
    (Ddet_metrics.Report.table
       ~headers:[ "app"; "lost"; "reproduced"; "attempts"; "steps"; "wall s" ]
       (List.map
          (fun r ->
            [
              r.dd_app;
              (if r.dd_lost = [] then "-" else String.concat "+" r.dd_lost);
              (if r.dd_reproduced then "yes" else "NO");
              string_of_int r.dd_attempts;
              string_of_int r.dd_steps;
              Printf.sprintf "%.3f" r.dd_wall;
            ])
          all_replay)
    ^ "\n\nlost '-' is complete evidence (the model's own replay); every\n\
       other row drops those nodes' shards and pays partial-evidence\n\
       search for what died with them.\n");
  let file = "BENCH_dist.json" in
  let oc = open_out file in
  let write_json (name, mono_b, shard_b, mono_s, shard_s, _) =
    Printf.sprintf
      "    { \"app\": %S, \"mono_bytes\": %d, \"shard_bytes\": %d, \
       \"mono_write_s\": %.8f, \"shard_write_s\": %.8f, \
       \"write_ratio\": %.4f }"
      name mono_b shard_b mono_s shard_s (shard_s /. mono_s)
  in
  let replay_json r =
    Printf.sprintf
      "    { \"app\": %S, \"lost\": [%s], \"lost_count\": %d, \
       \"reproduced\": %b, \"attempts\": %d, \"steps\": %d, \
       \"wall_s\": %.6f }"
      r.dd_app
      (String.concat ", " (List.map (Printf.sprintf "%S") r.dd_lost))
      (List.length r.dd_lost) r.dd_reproduced r.dd_attempts r.dd_steps
      r.dd_wall
  in
  Printf.fprintf oc
    "{\n  \"tiny\": %b,\n  \"write\": [\n%s\n  ],\n  \"replay\": [\n%s\n  ]\n}\n"
    tiny
    (String.concat ",\n" (List.map write_json results))
    (String.concat ",\n" (List.map replay_json all_replay));
  close_out oc;
  Printf.printf "wrote %s\n" file

(* ------------------------------------------------------------------ *)
(* OBS: the tracer's own cost. The same session pipeline runs with the
   ambient tracer absent and installed; the preallocated ring and the
   one-ref-read disabled path exist precisely so the enabled figure
   stays within 5% of wall time — the number this section measures and
   records in BENCH_obs.json. Off/on trials are interleaved so clock
   noise and GC phase hit both variants alike. *)

type obs_row = {
  ob_workload : string;
  ob_reps : int;
  ob_off_s : float;
  ob_on_s : float;
  ob_events : int;  (** ring occupancy after the traced trials *)
  ob_dropped : int;
}

let obs_overhead r = (r.ob_on_s /. r.ob_off_s) -. 1.

let obs_bench ~tiny ~json:_ () =
  let open Ddet_replay in
  let reps = if tiny then 50 else 200 in
  let trials = if tiny then 3 else 5 in
  let budget =
    { Search.max_attempts = 40; max_steps_per_attempt = 10_000;
      base_seed = 1; deadline_s = None }
  in
  let config = { Config.default with Config.budget } in
  let failing_seed (app : App.t) =
    let rec scan seed =
      if seed > 200 then invalid_arg ("no failing seed for " ^ app.App.name)
      else
        let r = App.production_run app ~seed in
        if r.Mvm.Interp.failure <> None && r.Mvm.Interp.steps < 10_000 then seed
        else scan (seed + 1)
    in
    scan 1
  in
  let cases =
    [
      (* deterministic oracle replay: recording dominates, spans and the
         per-entry accumulator tally are the cost *)
      (Msg_server.app (), Model.Perfect, failing_seed (Msg_server.app ()));
      (* failure-directed search: counter bumps on the hot attempt loop *)
      (Miniht.app (), Model.Failure_det, failing_seed (Miniht.app ()));
    ]
  in
  let session prepared seed () =
    for _ = 1 to reps do
      let original, log = Session.record prepared ~seed in
      let outcome = Session.replay prepared log in
      ignore (Session.assess prepared ~original ~log outcome)
    done
  in
  let rows =
    List.map
      (fun ((app : App.t), model, seed) ->
        let prepared = Session.prepare ~config model app in
        let run = session prepared seed in
        (* warm both paths once: training runs, lazy plane maps *)
        run ();
        let t = Ddet_obs.Tracer.create () in
        let off = ref infinity and on = ref infinity in
        let measure_off () =
          Ddet_obs.Tracer.set_current None;
          let _, s = time run in
          if s < !off then off := s
        and measure_on () =
          let _, s = time (fun () -> Ddet_obs.Tracer.with_current t run) in
          if s < !on then on := s
        in
        (* alternate the order across trials: a fixed order lets one
           variant absorb the GC debt the other just ran up *)
        for i = 1 to trials do
          if i land 1 = 0 then begin measure_on (); measure_off () end
          else begin measure_off (); measure_on () end
        done;
        {
          ob_workload = Printf.sprintf "%s/%s" app.App.name (Model.name model);
          ob_reps = reps;
          ob_off_s = !off;
          ob_on_s = !on;
          ob_events = Ddet_obs.Tracer.length t;
          ob_dropped = Ddet_obs.Tracer.dropped t;
        })
      cases
  in
  Printf.printf "tracer overhead (%d sessions per trial, min of %d)\n\n" reps
    trials;
  Printf.printf "%-24s %12s %12s %10s\n" "workload" "off ms" "on ms" "overhead";
  List.iter
    (fun r ->
      Printf.printf "%-24s %12.3f %12.3f %9.2f%%\n" r.ob_workload
        (r.ob_off_s *. 1e3) (r.ob_on_s *. 1e3)
        (100. *. obs_overhead r))
    rows;
  let worst =
    List.fold_left (fun acc r -> Float.max acc (obs_overhead r)) neg_infinity
      rows
  in
  Printf.printf "\nworst overhead %.2f%% (budget 5%%)%s\n" (100. *. worst)
    (if worst <= 0.05 then "" else "  ** OVER BUDGET **");
  let file = "BENCH_obs.json" in
  let oc = open_out file in
  Printf.fprintf oc "{\n  \"tiny\": %b,\n  \"rows\": [\n%s\n  ],\n\
                    \  \"worst_overhead\": %.4f,\n  \"budget\": 0.05\n}\n"
    tiny
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf
              "    {\"workload\": \"%s\", \"reps\": %d, \"off_s\": %.6f, \
               \"on_s\": %.6f, \"overhead\": %.4f, \"events\": %d, \
               \"dropped\": %d}"
              r.ob_workload r.ob_reps r.ob_off_s r.ob_on_s (obs_overhead r)
              r.ob_events r.ob_dropped)
          rows))
    worst;
  close_out oc;
  Printf.printf "wrote %s\n" file

(* ------------------------------------------------------------------ *)

let tiny_config =
  {
    Config.default with
    Config.budget =
      { Ddet_replay.Search.max_attempts = 20; max_steps_per_attempt = 2_000;
        base_seed = 1; deadline_s = None };
    value_budget =
      { Ddet_replay.Search.max_attempts = 3; max_steps_per_attempt = 20_000;
        base_seed = 1; deadline_s = None };
  }

let () =
  let rec parse (cmd, tiny, json, jobs) = function
    | [] -> (cmd, tiny, json, jobs)
    | "--tiny" :: rest -> parse (cmd, true, json, jobs) rest
    | "--json" :: rest -> parse (cmd, tiny, true, jobs) rest
    | ("--jobs" | "-j") :: n :: rest ->
      parse (cmd, tiny, json, int_of_string n) rest
    | arg :: rest when cmd = None -> parse (Some arg, tiny, json, jobs) rest
    | arg :: _ ->
      Printf.eprintf "unexpected argument %S\n" arg;
      exit 2
  in
  let cmd, tiny, json, jobs =
    parse (None, false, false, 1) (List.tl (Array.to_list Sys.argv))
  in
  let cmd = Option.value ~default:"all" cmd in
  let config = if tiny then tiny_config else Config.default in
  let fig_args f =
    if tiny then f ?config:(Some config) ?replays:(Some 1) ()
    else f ?config:None ?replays:None ()
  in
  match cmd with
  | "fig1" -> print (Experiment.render_fig1 (fig_args Experiment.fig1))
  | "fig2" -> print (Experiment.render_fig2 (fig_args Experiment.fig2))
  | "sec2" ->
    print (Experiment.sec2_adder ());
    print (Experiment.sec2_drop ())
  | "ablation" -> print (Experiment.render_ablation (Experiment.ablation_rcse ()))
  | "budget" -> print (Experiment.budget_sweep ())
  | "flight" -> print (Experiment.flight_sweep ())
  | "race" -> print (Experiment.race_detectors ())
  | "search" when tiny || json || jobs > 1 -> search_bench ~tiny ~jobs ~json ()
  | "search" ->
    print (Experiment.search_engines ~config ());
    search_bench ~tiny ~jobs ~json ()
  | "crash" -> crash_bench ~tiny ~json ()
  | "sanity" -> sanity ()
  | "governor" -> governor_bench ~tiny ~json ()
  | "dist" -> dist_bench ~tiny ~json ()
  | "obs" -> obs_bench ~tiny ~json ()
  | "static" -> static_bench ~tiny ~json ()
  | "open" ->
    print (Explore.experiment ());
    print (Frontier.experiment ())
  | "micro" -> micro ()
  | "all" ->
    List.iter print (Experiment.run_all ());
    print (Explore.experiment ());
    print (Frontier.experiment ());
    micro ()
  | other ->
    Printf.eprintf
      "unknown command %S (expected fig1|fig2|sec2|ablation|budget|flight|race|search|sanity|crash|governor|static|dist|obs|open|micro|all)\n"
      other;
    exit 2
