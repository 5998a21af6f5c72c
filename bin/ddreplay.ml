(* ddreplay: command-line driver for the debug-determinism library.

   Subcommands:
     list        enumerate applications and determinism models
     run         execute one production run and judge it
     find        scan seeds for a failing production run
     record      record a production run under a model, show the log
     replay      replay a previously saved log under its model
     debug       full record/replay/assess experiment
     report      one traced session, profiled: spans, counters, --trace
     classify    train and show the control/data-plane classification
     analyze     static analysis: races, planes, lints (no runs at all)
     invariants  train and show the dynamic invariants                *)

open Cmdliner
open Ddet
open Ddet_apps

let apps () =
  [
    Adder.app (); Bufover.app (); Msg_server.app (); Miniht.app ();
    Cloudstore.app ();
  ]

let find_app name =
  match List.find_opt (fun a -> String.equal a.App.name name) (apps ()) with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown app %S (expected one of: %s)" name
         (String.concat ", " (List.map (fun a -> a.App.name) (apps ()))))

(* ------------------------------------------------------------------ *)
(* arguments *)

let app_conv =
  Arg.conv
    ( (fun s -> find_app s |> Result.map_error (fun e -> `Msg e)),
      fun ppf a -> Format.pp_print_string ppf a.App.name )

let app_arg =
  Arg.(required & opt (some app_conv) None & info [ "a"; "app" ] ~docv:"APP"
         ~doc:"Application: adder, bufover, msg_server, miniht or cloudstore.")

let model_conv =
  Arg.conv
    ( (fun s -> Model.of_string s |> Result.map_error (fun e -> `Msg e)),
      fun ppf m -> Format.pp_print_string ppf (Model.name m) )

let model_arg =
  Arg.(required & opt (some model_conv) None & info [ "m"; "model" ] ~docv:"MODEL"
         ~doc:(Printf.sprintf "Determinism model: %s."
                 (String.concat ", " Model.all_names)))

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Production-run seed (schedule and input randomness).")

let cause_arg =
  Arg.(value & opt (some string) None & info [ "cause" ] ~docv:"ID"
         ~doc:"Require the primary root cause to be this catalog id.")

let exclusive_arg =
  Arg.(value & flag & info [ "exclusive" ]
         ~doc:"Require the failing run to exhibit exactly one root cause.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print every log entry.")

let replays_arg =
  Arg.(value & opt int 5 & info [ "replays" ] ~docv:"K"
         ~doc:"Independent replay searches averaged by the assessment.")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
         ~doc:"Also save the recording to $(docv).")

let in_arg =
  Arg.(required & opt (some string) None & info [ "i"; "in" ] ~docv:"FILE"
         ~doc:"Log file previously saved by record --out.")

let faults_conv =
  Arg.conv
    ( (fun s -> Mvm.Fault.of_string s |> Result.map_error (fun e -> `Msg e)),
      fun ppf p -> Format.pp_print_string ppf (Mvm.Fault.to_string p) )

let faults_arg =
  Arg.(value & opt (some faults_conv) None & info [ "faults" ] ~docv:"PLAN"
         ~doc:"Run under a deterministic fault plan, e.g. \
               $(b,seed=7,drop:ack_0:0.25,dup:repl:0.1,stall:2:50-90). \
               Actions: drop/dup/perturb CHAN:PROB, delay CHAN:FROM-TO, \
               stall TID:FROM-TO, crash TID:STEP. Apps with a node map \
               also take node-granular clauses — \
               $(b,partition:a+b|c:FROM-TO), $(b,nodecrash:NODE:STEP), \
               $(b,noderestart:NODE:FROM-TO) — which desugar to the \
               primitives above against the app's topology.")

let jobs_arg =
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains for seed scans and random-restart replay \
               searches (capped at the machine's cores). Outcomes are \
               identical at any $(docv); only wall-clock time changes, and \
               not always for the better. Input enumeration and \
               schedule DFS always run in order. Replays whose recorded \
               run is shorter than 15000 interpreter steps (the cost of \
               spawning domains) run in order regardless of $(docv).")

let io_faults_conv =
  Arg.conv
    ( (fun s ->
        Ddet_record.Faulty_store.of_string s
        |> Result.map_error (fun e -> `Msg e)),
      fun ppf p ->
        Format.pp_print_string ppf (Ddet_record.Faulty_store.to_string p) )

let io_faults_arg =
  Arg.(value & opt (some io_faults_conv) None & info [ "io-faults" ]
         ~docv:"PLAN"
         ~doc:"Save the recording through a deterministically faulty store, \
               e.g. $(b,seed=7,enospc:4096,fsyncfail:1:t). \
               Clauses: enospc:BYTES, torn:OP:KEEP, fsyncfail:OP[:t], \
               renamefail:OP[:t], flaky:PROB, slow:FROM-TO:MS. OP numbers \
               the save's store operations from 0 (a retried one counts \
               again): each file is a write then an fsync, and one \
               replaced atomically (a monolithic log, a segment header, a \
               manifest) then a rename, so a monolithic save is ops 0-2. \
               torn acts on a write, fsyncfail on an fsync, renamefail on \
               a rename. Transient faults are absorbed by \
               bounded retry with backoff; permanent ones surface as a \
               typed storage error and leave a salvageable prefix on disk \
               (segmented saves) or no file (monolithic saves).")

let overhead_budget_arg =
  Arg.(value & opt (some float) None & info [ "overhead-budget" ] ~docv:"X"
         ~doc:"Recording-overhead SLO as a factor, e.g. $(b,1.3) for \
               \"at most 1.3x\". An overhead governor tracks the modeled \
               cost during recording and dials fidelity down a degradation \
               ladder (full, value, sync, failure-only) when the budget is \
               threatened, dialling back up when pressure clears. Degraded \
               windows are marked in the log; replay treats them as search \
               regions and the assessment reports the honest DF floor.")

let checkpoint_every_arg =
  Arg.(value & opt int 32 & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Persist the checkpoint frontier every $(docv)-th judged \
               attempt (default 32). Lower values lose less progress on a \
               crash but cost more: BENCH_crash.json measured every-1 at \
               roughly 36x the checkpointing overhead of the default \
               every-32 throttle, for at most 31 attempts of extra replay \
               work after a crash.")

let salvage_arg =
  Arg.(value & flag & info [ "salvage" ]
         ~doc:"Load the log in salvage mode: keep the longest valid prefix \
               of a damaged file, report the damage, and attempt a degraded \
               replay instead of refusing.")

let deadline_arg =
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SEC"
         ~doc:"Wall-clock budget for the replay search, in seconds. When it \
               expires the search stops cooperatively and degrades to its \
               best partial candidate (exit code 3) or reports exhaustion \
               (exit code 5).")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Persist the search frontier to $(docv) (atomic, CRC-sealed \
               writes) so a killed search can be continued with \
               $(b,--resume).")

let resume_arg =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
         ~doc:"Continue a search from a checkpoint written by \
               $(b,--checkpoint). The resumed search provably reaches the \
               same outcome as an uninterrupted run.")

let attempts_arg =
  Arg.(value & opt (some int) None & info [ "attempts" ] ~docv:"N"
         ~doc:"Override the search budget's maximum attempts.")

let segments_arg =
  Arg.(value & opt (some int) None & info [ "segments" ] ~docv:"N"
         ~doc:"Save the recording segmented, $(docv) entries per segment, \
               instead of monolithic: crash-tolerant persistence where a \
               torn write loses at most the segment being written. Produces \
               FILE.header, FILE.NNNN.seg and FILE.manifest; $(b,replay) \
               detects the segment set automatically.")

let shards_arg =
  Arg.(value & flag & info [ "shards" ]
         ~doc:"Save the recording sharded per node — one independently \
               loadable log per node of the app's deployment map plus a \
               causal manifest (FILE.NODE.shard each, FILE.causal): the \
               on-disk shape of distributed evidence, where shards are \
               lost or corrupted independently. Requires an app with a \
               node map (msg_server, cloudstore); $(b,replay) detects \
               the shard set automatically.")

let lose_node_arg =
  Arg.(value & opt_all string [] & info [ "lose-node" ] ~docv:"NODE"
         ~doc:"When replaying a sharded recording, treat $(docv)'s shard \
               as lost without touching the file — simulate a node whose \
               evidence never made it out. Repeatable. Surviving shards \
               replay as partial evidence: the lost node's schedule and \
               inputs become search dimensions.")

let static_steer_arg =
  Arg.(value & flag & info [ "static-steer" ]
         ~doc:"Bound the partial-evidence search with the static \
               communication graph: only lost-node decision points that \
               can statically reach a surviving node are explored, and \
               inputs of lost threads with no static path to a survivor \
               are pinned to a canonical value instead of searched. \
               Sharded recordings only.")

(* every diagnostic goes through here, so stderr is uniformly greppable
   for the tool name — asserted by test_cli *)
let err fmt = Printf.eprintf ("ddreplay: " ^^ fmt ^^ "\n")

(* resume files and engine/seed mismatches surface as Invalid_argument
   from the search layer; turn them into diagnostics, not backtraces *)
let guard f =
  try f () with Invalid_argument msg ->
    err "%s" msg;
    1

(* the crash flags: [k] gets the checkpoint sink (a write every [every]
   judged attempts) and the frontier resumed from [resume] *)
let with_crash_flags checkpoint every resume k =
  let checkpoint =
    Option.map (Ddet_replay.Checkpoint.sink ~every:(max 1 every)) checkpoint
  in
  match resume with
  | None -> k checkpoint None
  | Some path -> (
    match Ddet_replay.Checkpoint.load path with
    | Ok c -> k checkpoint (Some c)
    | Error msg ->
      err "cannot resume from %s: %s" path msg;
      1)

(* ------------------------------------------------------------------ *)
(* command bodies *)

let describe_run (app : App.t) (r : Mvm.Interp.result) =
  Printf.printf "status:  %s\n" (Mvm.Interp.status_to_string r.Mvm.Interp.status);
  Printf.printf "steps:   %d\n" r.Mvm.Interp.steps;
  List.iter
    (fun (chan, vs) ->
      Printf.printf "output %s: %s\n" chan
        (String.concat ", " (List.map Mvm.Value.to_string vs)))
    r.Mvm.Interp.outputs;
  (match r.Mvm.Interp.failure with
  | Some f -> Printf.printf "failure: %s\n" (Mvm.Failure.to_string f)
  | None -> Printf.printf "failure: none\n");
  match Ddet_metrics.Root_cause.observed app.App.catalog r with
  | [] -> ()
  | causes ->
    Printf.printf "root causes: %s\n"
      (String.concat ", "
         (List.map (fun c -> c.Ddet_metrics.Root_cause.id) causes))

let cmd_list () =
  Printf.printf "applications:\n";
  List.iter (fun a -> Printf.printf "  %-12s %s\n" a.App.name a.App.descr) (apps ());
  Printf.printf "\ndeterminism models:\n";
  List.iter
    (fun name ->
      match Model.of_string name with
      | Ok m -> Printf.printf "  %-14s (%s)\n" name (Model.reference m)
      | Error _ -> ())
    Model.all_names;
  0

let cmd_run app seed faults =
  describe_run app (App.production_run ?faults app ~seed);
  0

let config_with ?deadline ?attempts ?overhead_budget jobs =
  let base = { Config.default with Config.overhead_budget } in
  let b = base.Config.budget in
  let b = { b with Ddet_replay.Search.deadline_s = deadline } in
  let b =
    match attempts with
    | None -> b
    | Some n -> { b with Ddet_replay.Search.max_attempts = n }
  in
  { base with Config.jobs = max 1 jobs; budget = b }

let cmd_find app cause exclusive faults jobs checkpoint every resume =
  guard @@ fun () ->
  with_crash_flags checkpoint every resume @@ fun checkpoint resume ->
  match
    Workload.find_failing_seed ?cause ~exclusive ?faults ~jobs:(max 1 jobs)
      ?checkpoint ?resume app
  with
  | Some (seed, r) ->
    Printf.printf "seed %d fails:\n" seed;
    describe_run app r;
    0
  | None ->
    err "no failing seed found in the scanned range";
    Ddet_replay.Replayer.exit_deadline

let cmd_record app model seed verbose out faults segments shards io_faults
    overhead_budget =
  guard @@ fun () ->
  if shards && segments <> None then begin
    err "--shards and --segments are mutually exclusive";
    1
  end
  else
  let config = { Config.default with Config.overhead_budget } in
  let prepared = Session.prepare ~config model app in
  let original, log, causal =
    if shards then
      let original, log, causal = Session.record_dist ?faults prepared ~seed in
      (original, log, Some causal)
    else
      let original, log = Session.record ?faults prepared ~seed in
      (original, log, None)
  in
  describe_run app original;
  Printf.printf "\nlog: %d entries, %d payload bytes, modeled overhead %.2fx\n"
    (Ddet_record.Log.entry_count log)
    (Ddet_record.Log.payload_bytes log)
    (Ddet_record.Cost_model.overhead Ddet_record.Cost_model.default log);
  (match Ddet_record.Log.governed_windows log with
  | [] -> ()
  | ws ->
    Printf.printf
      "governor: %d degraded window(s); replay is failure-directed search \
       over the whole run\n"
      (List.length ws));
  if verbose then Format.printf "%a@." Ddet_record.Log.pp log;
  match out with
  | None -> 0
  | Some path ->
    (* The save path is where hostile I/O bites: route it through the
       pluggable store, optionally wrapped in the deterministic fault
       injector, with bounded retry absorbing transient faults. *)
    let stats, store =
      match io_faults with
      | None -> (None, Ddet_record.Store.local ())
      | Some plan ->
        let faulty, stats =
          Ddet_record.Faulty_store.wrap plan (Ddet_record.Store.local ())
        in
        (Some stats, Ddet_record.Retry.store faulty)
    in
    match causal with
    | Some causal ->
      (* one log per node plus the causal manifest; individual shard
         failures are survivable by design, so report and carry on *)
      (* static shard priority: the most diagnostic nodes' shards are
         written first, so a store dying mid-save keeps them *)
      let priority = Session.shard_priority prepared in
      let report =
        Ddet_record.Sharded_log.save_via ~priority store ~base:path ~causal log
      in
      (match stats with
      | Some s ->
        Format.printf "io-faults: %a@." Ddet_record.Faulty_store.pp_stats (s ())
      | None -> ());
      Format.printf "@[<v>%a@]@." Ddet_record.Sharded_log.pp_save_report report;
      if Ddet_record.Sharded_log.save_ok report then begin
        Printf.printf "saved sharded to %s (.NODE.shard per node, .causal)\n"
          path;
        0
      end
      else begin
        err
          "sharded save incomplete; surviving shards replay as partial \
           evidence";
        Ddet_replay.Replayer.exit_salvaged
      end
    | None ->
    let saved =
      match segments with
      | Some n ->
        Ddet_record.Log_segments.save_via store ~segment_entries:(max 1 n)
          path log
      | None -> Ddet_record.Log_io.save_via store path log
    in
    (match stats with
    | Some s ->
      Format.printf "io-faults: %a@." Ddet_record.Faulty_store.pp_stats (s ())
    | None -> ());
    (match saved with
    | Ok () ->
      (match segments with
      | Some _ ->
        Printf.printf "saved segmented to %s (.header, .NNNN.seg, .manifest)\n"
          path
      | None -> Printf.printf "saved to %s\n" path);
      0
    | Error e ->
      err "save failed: %s" (Ddet_record.Store.error_to_string e);
      (match segments with
      | Some _ ->
        err
          "segments written before the failure remain at %s; \
           replay recovers that prefix automatically"
          path
      | None -> ());
      Ddet_replay.Replayer.exit_salvaged)

(* Monolithic file if it exists; otherwise a segmented base path. Either
   way the result is (log, damaged) or an error. *)
let load_any ~salvage file =
  if Sys.file_exists file then begin
    let mode =
      if salvage then Ddet_record.Log_io.Salvage else Ddet_record.Log_io.Strict
    in
    match Ddet_record.Log_io.load_report ~mode file with
    | Error msg -> Error msg
    | Ok (log, damage) ->
      if Ddet_record.Log_io.is_damaged damage then
        Format.printf "%a@." Ddet_record.Log_io.pp_damage damage;
      Ok (log, Ddet_record.Log_io.is_damaged damage)
  end
  else if Ddet_record.Log_segments.exists file then begin
    match Ddet_record.Log_segments.load file with
    | Error msg -> Error msg
    | Ok (log, recovery) ->
      if Ddet_record.Log_segments.is_damaged recovery then
        Format.printf "%a@." Ddet_record.Log_segments.pp_recovery recovery;
      Ok (log, Ddet_record.Log_segments.is_damaged recovery)
  end
  else Error "no such file (and no segmented recording at that base path)"

(* Replay over a sharded recording: load surviving shards, stitch, and
   either run the model's own replay (complete evidence) or degrade to
   partial-evidence search. The exit-code contract here: a reproduction
   from missing/salvaged shards is still 0 — honestly-searched-around
   evidence is a success, reported as degraded DF — exhaustion with a
   best partial is 3, and an all-shards-lost set is 4. *)
let replay_sharded app model file lose jobs deadline checkpoint every resume
    attempts static_steer =
  match Ddet_record.Sharded_log.load ~lose file with
  | Error msg ->
    err "cannot load %s: %s" file msg;
    1
  | Ok loaded ->
    let st = Ddet_replay.Stitch.stitch loaded in
    Format.printf "@[<v>%a@]@." Ddet_replay.Stitch.pp st;
    if Ddet_record.Sharded_log.all_lost loaded then begin
      err "every shard is lost or corrupt: no evidence left to replay";
      Ddet_replay.Replayer.exit_salvaged
    end
    else begin
      with_crash_flags checkpoint every resume @@ fun checkpoint resume ->
      let config = config_with ?deadline ?attempts jobs in
      let prepared = Session.prepare ~config model app in
      let outcome =
        Session.replay_stitched ?checkpoint ?resume ~static_steer prepared st
      in
      Format.printf "%a@." Ddet_replay.Replayer.pp_outcome outcome;
      (match outcome.Ddet_replay.Replayer.result with
      | Some r ->
        print_newline ();
        describe_run app r
      | None -> ());
      Ddet_replay.Replayer.exit_code outcome
    end

let cmd_replay app model file salvage lose jobs deadline checkpoint every
    resume attempts static_steer =
  guard @@ fun () ->
  (* detection order: a monolithic file wins, then a shard set at the
     base path, then a segmented recording *)
  if (not (Sys.file_exists file)) && Ddet_record.Sharded_log.exists file then
    replay_sharded app model file lose jobs deadline checkpoint every resume
      attempts static_steer
  else if lose <> [] then begin
    err "--lose-node applies to sharded recordings; %s is not one" file;
    1
  end
  else if static_steer then begin
    err "--static-steer applies to sharded recordings; %s is not one" file;
    1
  end
  else
  match load_any ~salvage file with
  | Error msg ->
    err "cannot load %s: %s" file msg;
    1
  | Ok (log, damaged) ->
    with_crash_flags checkpoint every resume @@ fun checkpoint resume ->
    let config = config_with ?deadline ?attempts jobs in
    let prepared = Session.prepare ~config model app in
    let outcome = Session.replay ?checkpoint ?resume prepared log in
    Format.printf "%a@." Ddet_replay.Replayer.pp_outcome outcome;
    (match outcome.Ddet_replay.Replayer.result with
    | Some r ->
      print_newline ();
      describe_run app r
    | None -> ());
    Ddet_replay.Replayer.exit_code ~damaged outcome

(* The distributed session behind debug and report: record sharded per
   node, save the shard set under a temp base (removed afterwards),
   reload it as if the [lose] nodes' shards never made it out, stitch
   the survivors, and replay them through the checkpoint sink and the
   resumed frontier; the assessment reports per-node DF and the honest
   floor. [stitched] sees the merge before the replay. Failures are
   reported here, and [Error] carries the exit code: 4 when every shard
   is lost, else 1. *)
let sharded_session ~config ?faults ?checkpoint ?resume ~static_steer
    ~stitched app model seed lose =
  let prepared = Session.prepare ~config model app in
  let original, log, causal = Session.record_dist ?faults prepared ~seed in
  let base = Filename.temp_file "ddreplay" ".dist" in
  let cleanup () =
    let dir = Filename.dirname base and name = Filename.basename base in
    Array.iter
      (fun f ->
        if String.starts_with ~prefix:name f then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir)
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let report =
    Ddet_record.Sharded_log.save_via (Ddet_record.Store.local ()) ~base
      ~causal log
  in
  if not (Ddet_record.Sharded_log.save_ok report) then begin
    err "sharded save failed:";
    Format.eprintf "@[<v>%a@]@." Ddet_record.Sharded_log.pp_save_report report;
    Error 1
  end
  else
    match Ddet_record.Sharded_log.load ~lose base with
    | Error msg ->
      err "cannot reload shard set: %s" msg;
      Error 1
    | Ok loaded ->
      let st = Ddet_replay.Stitch.stitch loaded in
      stitched st;
      if Ddet_record.Sharded_log.all_lost loaded then begin
        err "every shard is lost or corrupt: no evidence left to replay";
        Error Ddet_replay.Replayer.exit_salvaged
      end
      else
        let outcome =
          Session.replay_stitched ?checkpoint ?resume ~static_steer prepared st
        in
        let a =
          Session.assess ~evidence:st.Ddet_replay.Stitch.evidence prepared
            ~original ~log outcome
        in
        Ok (outcome, a)

let cmd_debug app model seed replays faults jobs deadline checkpoint every
    resume overhead_budget shards lose static_steer =
  guard @@ fun () ->
  let config = config_with ?deadline ?overhead_budget jobs in
  if shards || lose <> [] then begin
    with_crash_flags checkpoint every resume @@ fun checkpoint resume ->
    match
      sharded_session ~config ?faults ?checkpoint ?resume ~static_steer
        ~stitched:(Format.printf "@[<v>%a@]@." Ddet_replay.Stitch.pp)
        app model seed lose
    with
    | Error code -> code
    | Ok (outcome, a) ->
      Format.printf "%a@." Ddet_metrics.Utility.pp a;
      Ddet_replay.Replayer.exit_code outcome
  end
  else if static_steer then begin
    err "--static-steer requires --shards or --lose-node";
    1
  end
  else
  match (checkpoint, resume) with
  | None, None ->
    let a =
      Session.experiment_ensemble ~config ?faults ~replays model app ~seed
    in
    Format.printf "%a@." Ddet_metrics.Utility.pp a;
    0
  | _ ->
    (* checkpointing identifies ONE search; run a single replay rather
       than the seed-varied ensemble so the frontier stays meaningful *)
    with_crash_flags checkpoint every resume @@ fun checkpoint resume ->
    let prepared = Session.prepare ~config model app in
    let original, log = Session.record ?faults prepared ~seed in
    let outcome = Session.replay ?checkpoint ?resume prepared log in
    let a = Session.assess prepared ~original ~log outcome in
    Format.printf "%a@." Ddet_metrics.Utility.pp a;
    Ddet_replay.Replayer.exit_code outcome

let cmd_classify app =
  let prepared = Session.prepare (Model.Rcse Model.Code_based) app in
  let training = Session.training_runs app in
  Format.printf "taint profile (%d training runs):@.%a@."
    (List.length training)
    Ddet_analysis.Taint_profile.pp
    (Ddet_analysis.Taint_profile.of_results training);
  (match prepared.Session.plane_map with
  | Some map ->
    Printf.printf "classification (threshold %.1f B/step):\n"
      Ddet_analysis.Plane.default_threshold;
    List.iter
      (fun (fname, plane) ->
        Printf.printf "  %-24s %s\n" fname (Ddet_analysis.Plane.to_string plane))
      (Ddet_analysis.Plane.to_assoc map)
  | None -> ());
  (match app.App.control_plane with
  | [] -> ()
  | truth ->
    Printf.printf "ground truth control plane: %s\n" (String.concat ", " truth));
  0

(* a deliberately broken program for exercising the linter from the CLI:
   Label.program validates names but not index ranges, lock balance,
   atomic restrictions or reachability, so this constructs fine *)
let lint_demo () =
  Mvm.Dsl.(
    program ~name:"lint-demo"
      ~regions:[ scalar "c" (Mvm.Value.int 0); array "buf" 4 (Mvm.Value.int 0) ]
      ~inputs:[] ~main:"main"
      [
        func "main" []
          [
            lock "m";
            lock "m";
            store "buf" (i 9) (i 1);
            atomic [ recv "x" "never_sent" ];
            return (i 0);
            store_g "c" (i 1);
          ];
      ])

(* the distributed counterpart of lint_demo: three single-threaded nodes
   in a static cross-node wait cycle — left waits for right's ping, right
   waits for left's pong, main waits for left's done marker. Nothing is
   ever sent, so `analyze --demo --nodes` must exit 1 on comm-deadlock. *)
let dist_demo () =
  let labeled =
    Mvm.Dsl.(
      program ~name:"dist-deadlock-demo" ~regions:[] ~inputs:[] ~main:"main"
        [
          func "main" []
            [ spawn "left" []; spawn "right" []; recv "x" "done0" ];
          func "left" []
            [ recv "p" "ping"; send "pong" (i 1); send "done0" (i 1) ];
          func "right" [] [ recv "q" "pong"; send "ping" (i 1) ];
        ])
  in
  let map =
    Mvm.Node.make
      ~nodes:[ "a"; "b"; "c" ]
      ~assign:[ ("main", "a"); ("left", "b"); ("right", "c") ]
  in
  (labeled, map)

let cmd_analyze app demo threshold nodes json =
  let target =
    if demo then
      if nodes then
        let labeled, map = dist_demo () in
        Ok (labeled, Some map, [])
      else Ok (lint_demo (), None, [])
    else
      match app with
      | Some a ->
        if nodes then (
          match a.App.nodes with
          | Some m -> Ok (a.App.labeled, Some m, a.App.control_plane)
          | None ->
            Error
              (Printf.sprintf "analyze --nodes: app %s has no node map"
                 a.App.name))
        else Ok (a.App.labeled, None, a.App.control_plane)
      | None -> Error "analyze: pass --app APP or --demo"
  in
  match target with
  | Error e ->
    err "%s" e;
    1
  | Ok (labeled, nmap, truth) ->
    let report =
      Ddet_static.Static_report.analyze ~threshold_bytes:threshold ?nodes:nmap
        labeled
    in
    if json then print_endline (Ddet_static.Static_report.to_json report)
    else begin
      Format.printf "%a@." Ddet_static.Static_report.pp report;
      match truth with
      | [] -> ()
      | t ->
        Printf.printf "ground truth control plane: %s\n" (String.concat ", " t)
    end;
    if Ddet_static.Static_report.has_lint_errors report then 1 else 0

let cmd_invariants app =
  let training = Session.training_runs app in
  let inv = Ddet_analysis.Invariants.infer training in
  Format.printf "invariants from %d passing training runs:@.%a@."
    (List.length training) Ddet_analysis.Invariants.pp inv;
  0

(* ------------------------------------------------------------------ *)
(* report: run one fully traced session — record, replay, assess — and
   print its profile. The tracer is the product here: spans time the
   phases, counters expose what each layer did, and the exports are the
   human table, --json, and --trace (Chrome trace-event JSON). *)

(* What a replay that did not reproduce spent its budget on: attempts
   cut by the step cap or by an abort hook, RCSE picks that found the
   log head at no candidate (stalls) or ran a risky candidate, and strict
   RCSE attempts ended because the head's thread stood at a later logged
   site (held) or the head waited longer than the recorded run
   (starved). *)
let miss_counters =
  [
    "search.step_cap_hits"; "search.aborted"; "oracle.rcse_stalls";
    "oracle.rcse_risky"; "oracle.rcse_held"; "oracle.rcse_starved";
  ]

(* Pre-register the standard counter set so every report exposes the
   same schema: a counter nothing bumped reads 0 instead of vanishing
   from the output. *)
let standard_counters =
  [
    "record.entries.sched"; "record.entries.value"; "record.entries.sync";
    "record.entries.book"; "govern.transitions"; "govern.dropped";
    "search.attempts"; "search.steps"; "search.pruned";
    "search.deadline_hits"; "search.incidents"; "stitch.edges_enforced";
    "stitch.edges_dropped"; "store.retries"; "store.give_ups";
    "oracle.cursor_stalls"; "oracle.steer_hot_picks"; "oracle.cold_pins";
  ]
  @ miss_counters

(* the debug flow without its prints: every phase runs under the ambient
   tracer, and the outcome comes back for the report header *)
let run_traced ~config ?faults ~static_steer app model seed lose shards =
  if shards || lose <> [] then
    Result.map fst
      (sharded_session ~config ?faults ~static_steer ~stitched:ignore app
         model seed lose)
  else begin
    let prepared = Session.prepare ~config model app in
    let original, log = Session.record ?faults prepared ~seed in
    let outcome = Session.replay prepared log in
    ignore (Session.assess prepared ~original ~log outcome);
    Ok outcome
  end

let wall_counter name =
  let l = String.length name in
  l >= 3 && String.equal (String.sub name (l - 3) 3) "_ns"

let report_json ~mask ~app ~model outcome t =
  let module T = Ddet_obs.Tracer in
  let b = Buffer.create 4096 in
  let ns v = if mask then "null" else Int64.to_string v in
  Buffer.add_string b
    (Printf.sprintf
       "{\"schema\":1,\"app\":\"%s\",\"model\":\"%s\",\"reproduced\":%b,\"attempts\":%d,\n"
       app.App.name (Model.name model)
       (outcome.Ddet_replay.Replayer.result <> None)
       outcome.Ddet_replay.Replayer.attempts);
  Buffer.add_string b " \"spans\":[";
  List.iteri
    (fun i (s : T.span_stat) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n  {\"name\":\"%s\",\"calls\":%d,\"total_ns\":%s}"
           s.T.sname s.T.calls (ns s.T.total_ns)))
    (T.profile t);
  Buffer.add_string b "],\n \"counters\":[";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf "\n  {\"name\":\"%s\",\"value\":%s}" name
           (if mask && wall_counter name then "null" else string_of_int v)))
    (T.counters t);
  Buffer.add_string b
    (Printf.sprintf "],\n \"events\":%d,\"dropped\":%d}\n" (T.length t)
       (T.dropped t));
  Buffer.contents b

(* the [oracle.rcse_diverged] instant, in words: where the first attempt
   strict RCSE ended left its log *)
let divergence_line t =
  let module T = Ddet_obs.Tracer in
  List.find_map
    (fun (e : T.ev) ->
      if e.T.kind <> T.I || not (String.equal e.T.name "oracle.rcse_diverged")
      then None
      else
        let arg k =
          match List.assoc_opt k e.T.args with Some (T.Count n) -> n | _ -> -1
        in
        let tid = arg "tid" and sid = arg "sid" and at = arg "stands_at" in
        Some
          (Printf.sprintf "attempt %d left the log at step %d: t%d must run s%d next but %s"
             (arg "attempt") (arg "step") tid sid
             (if at >= 0 then
                Printf.sprintf "stands at s%d, which the log records later" at
              else "could not run it for more picks than the recorded run took steps")))
    (T.events t)

let report_human ~app ~model outcome t =
  let module T = Ddet_obs.Tracer in
  Printf.printf "session: %s under %s — %s, %d attempt(s)\n\n" app.App.name
    (Model.name model)
    (match outcome.Ddet_replay.Replayer.result with
    | Some _ -> "reproduced"
    | None -> "not reproduced")
    outcome.Ddet_replay.Replayer.attempts;
  let prof =
    List.sort
      (fun (a : T.span_stat) b -> Int64.compare b.T.total_ns a.T.total_ns)
      (T.profile t)
  in
  Printf.printf "%-28s %8s %12s\n" "phase" "calls" "total ms";
  List.iter
    (fun (s : T.span_stat) ->
      Printf.printf "%-28s %8d %12.3f\n" s.T.sname s.T.calls
        (Int64.to_float s.T.total_ns /. 1e6))
    prof;
  Printf.printf "\n%-28s %12s\n" "counter" "value";
  List.iter
    (fun (name, v) ->
      if wall_counter name then
        Printf.printf "%-28s %9.3f ms\n" name (float_of_int v /. 1e6)
      else Printf.printf "%-28s %12d\n" name v)
    (T.counters t);
  (if outcome.Ddet_replay.Replayer.result = None then
     let counters = T.counters t in
     let value name = Option.value ~default:0 (List.assoc_opt name counters) in
     let largest =
       List.fold_left
         (fun best name -> if value name > value best then name else best)
         (List.hd miss_counters) miss_counters
     in
     Printf.printf "\nnot reproduced; largest miss counter: %s = %d\n" largest
       (value largest));
  Option.iter print_endline (divergence_line t);
  Printf.printf "\nevents: %d (%d dropped)\n" (T.length t) (T.dropped t)

let cmd_report app model seed faults jobs overhead_budget shards lose
    static_steer json mask trace =
  guard @@ fun () ->
  let config = config_with ?overhead_budget jobs in
  let module T = Ddet_obs.Tracer in
  let t = T.create () in
  List.iter (fun n -> ignore (T.counter t n)) standard_counters;
  let res =
    T.with_current t @@ fun () ->
    run_traced ~config ?faults ~static_steer app model seed lose shards
  in
  match res with
  | Error _ -> 1
  | Ok outcome ->
    (match trace with
    | Some file ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (T.to_chrome_json t));
      if not json then Printf.printf "trace: %s\n" file
    | None -> ());
    if json then print_string (report_json ~mask ~app ~model outcome t)
    else report_human ~app ~model outcome t;
    0

(* ------------------------------------------------------------------ *)
(* command wiring *)

let exits = Cmd.Exit.defaults

(* the replay exit-code contract (Ddet_replay.Replayer.exit_code), shown
   in --help for every command that searches *)
let search_exits =
  Cmd.Exit.info Ddet_replay.Replayer.exit_ok
    ~doc:"the recorded failure (or seed scan target) was reproduced — \
          including from partial shard evidence: a sharded replay that \
          reproduces despite missing or salvaged shards still exits 0, \
          with the degradation reported as per-node DF, not as failure."
  :: Cmd.Exit.info Ddet_replay.Replayer.exit_partial
       ~doc:"budget exhausted; the replay degraded to its best partial \
             candidate (the DF 1/n floor). For sharded recordings: the \
             partial-evidence search did not reproduce the failure but \
             has a closest candidate to show."
  :: Cmd.Exit.info Ddet_replay.Replayer.exit_salvaged
       ~doc:"the log was damaged and salvaged; the replay ran against the \
             recovered prefix. For sharded recordings: every shard was \
             lost or corrupt — no evidence left to replay at all."
  :: Cmd.Exit.info Ddet_replay.Replayer.exit_deadline
       ~doc:"deadline or budget ran out with nothing to show."
  :: List.filter
       (* our 0 entry replaces the stock "on success" one *)
       (fun e -> Cmd.Exit.info_code e <> Ddet_replay.Replayer.exit_ok)
       Cmd.Exit.defaults

let list_cmd =
  Cmd.v (Cmd.info "list" ~exits ~doc:"List applications and models.")
    Term.(const cmd_list $ const ())

let run_cmd =
  Cmd.v (Cmd.info "run" ~exits ~doc:"Execute and judge one production run.")
    Term.(const cmd_run $ app_arg $ seed_arg $ faults_arg)

let find_cmd =
  Cmd.v
    (Cmd.info "find" ~exits:search_exits
       ~doc:"Scan seeds for a failing production run.")
    Term.(const cmd_find $ app_arg $ cause_arg $ exclusive_arg $ faults_arg
          $ jobs_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg)

let record_cmd =
  Cmd.v (Cmd.info "record" ~exits ~doc:"Record a production run under a model.")
    Term.(const cmd_record $ app_arg $ model_arg $ seed_arg $ verbose_arg
          $ out_arg $ faults_arg $ segments_arg $ shards_arg $ io_faults_arg
          $ overhead_budget_arg)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~exits:search_exits
       ~doc:"Replay a saved log (monolithic file, per-node shard set or \
             segmented base path — detected automatically) under its \
             model. Sharded recordings with missing or corrupt shards \
             degrade to partial-evidence search: surviving nodes' logs \
             are enforced, lost nodes are searched.")
    Term.(const cmd_replay $ app_arg $ model_arg $ in_arg $ salvage_arg
          $ lose_node_arg $ jobs_arg $ deadline_arg $ checkpoint_arg
          $ checkpoint_every_arg $ resume_arg $ attempts_arg
          $ static_steer_arg)

let debug_cmd =
  Cmd.v
    (Cmd.info "debug" ~exits:search_exits
       ~doc:"Record, replay and assess: overhead, DF, DE, DU.")
    Term.(const cmd_debug $ app_arg $ model_arg $ seed_arg $ replays_arg
          $ faults_arg $ jobs_arg $ deadline_arg $ checkpoint_arg
          $ checkpoint_every_arg $ resume_arg $ overhead_budget_arg
          $ shards_arg $ lose_node_arg $ static_steer_arg)

let classify_cmd =
  Cmd.v
    (Cmd.info "classify" ~exits
       ~doc:"Train and show the control/data-plane classification.")
    Term.(const cmd_classify $ app_arg)

let invariants_cmd =
  Cmd.v
    (Cmd.info "invariants" ~exits ~doc:"Train and show dynamic invariants.")
    Term.(const cmd_invariants $ app_arg)

let analyze_app_arg =
  Arg.(value & opt (some app_conv) None & info [ "a"; "app" ] ~docv:"APP"
         ~doc:"Application to analyze: adder, bufover, msg_server, miniht \
               or cloudstore.")

let demo_arg =
  Arg.(value & flag & info [ "demo" ]
         ~doc:"Analyze a built-in deliberately broken program instead of an \
               application (shows every linter rule class firing).")

let threshold_arg =
  Arg.(value & opt int Ddet_static.Splane.default_threshold
       & info [ "threshold" ] ~docv:"BYTES"
           ~doc:"Static plane classification threshold in bytes: functions \
                 whose heaviest input-derived value strictly exceeds it are \
                 data-plane.")

let nodes_flag_arg =
  Arg.(value & flag & info [ "nodes" ]
         ~doc:"Run the cross-node analysis against the app's node map: \
               placement-refined race candidates, per-node views, shard \
               write priority and the communication lint (static \
               deadlock/orphan detection). With $(b,--demo), analyzes a \
               built-in cross-node deadlock instead.")

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the report as one JSON object (races, planes, lints, \
               per-node views) instead of text.")

let report_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the profile as one JSON object (spans, counters, event \
               and drop totals) instead of the table.")

let mask_arg =
  Arg.(value & flag & info [ "mask" ]
         ~doc:"Mask wall-time quantities (span durations, *_ns counters) in \
               the output: what remains is deterministic for a given seed, \
               byte-for-byte — the trace-as-evidence contract.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Also write the session's trace to $(docv) as Chrome \
               trace-event JSON: open it in about:tracing or Perfetto.")

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~exits
       ~doc:"Run one fully traced session (record, replay, assess) and \
             print its observability profile: phase spans, per-layer \
             counters — recorder fidelity tiers, governor ladder moves, \
             store retries, search attempts/prunes, stitcher verdicts, \
             oracle steering — and drop accounting. With $(b,--shards) or \
             $(b,--lose-node), the session is distributed and the profile \
             covers the stitch phase too.")
    Term.(const cmd_report $ app_arg $ model_arg $ seed_arg $ faults_arg
          $ jobs_arg $ overhead_budget_arg $ shards_arg $ lose_node_arg
          $ static_steer_arg $ report_json_arg $ mask_arg $ trace_arg)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~exits
       ~doc:"Static analysis report: lockset race candidates, training-free \
             control/data-plane classification and lint findings — with \
             $(b,--nodes), refined by deployment placement and extended \
             with the cross-node communication lint. Exits nonzero when \
             the linter finds errors (including static deadlocks).")
    Term.(const cmd_analyze $ analyze_app_arg $ demo_arg $ threshold_arg
          $ nodes_flag_arg $ json_arg)

let () =
  let info =
    Cmd.info "ddreplay" ~version:"1.0.0"
      ~doc:"Replay-based debugging with selectable determinism models."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ list_cmd; run_cmd; find_cmd; record_cmd; replay_cmd; debug_cmd;
            report_cmd; classify_cmd; analyze_cmd; invariants_cmd ]))
