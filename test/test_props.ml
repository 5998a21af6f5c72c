(* Property-based tests (qcheck): record/replay round-trip laws over
   randomly generated concurrent programs, cost-model algebra, PRNG and
   data-structure invariants. *)

open Mvm
open Ddet_record
open Ddet_replay

(* ------------------------------------------------------------------ *)
(* generators *)

(* A generated scenario: a random program plus a production seed. The
   qcheck generator draws two ints and proggen does the heavy lifting;
   shrinking the ints shrinks toward small seeds, which is good enough for
   diagnosis (the program is reconstructible from pseed). *)
let scenario_gen =
  QCheck2.Gen.(
    map2
      (fun pseed wseed -> (pseed, wseed))
      (int_range 1 5_000) (int_range 1 5_000))

let program_of pseed = Proggen.generate Proggen.default (Prng.create pseed)

let print_scenario (pseed, wseed) =
  Printf.sprintf "program seed %d, world seed %d" pseed wseed

let record_run recorder labeled wseed =
  Recorder.record recorder labeled ~spec:Spec.accept_all
    ~world:(World.random ~seed:wseed)

(* ------------------------------------------------------------------ *)
(* round-trip laws *)

(* Perfect determinism: replaying the full log reproduces the execution
   event-for-event (schedules, outputs, final status). *)
let prop_perfect_roundtrip =
  QCheck2.Test.make ~name:"perfect record/replay reproduces the schedule"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run Recorder.perfect labeled wseed in
      let outcome = Replayer.perfect labeled ~spec:Spec.accept_all log in
      match outcome.Replayer.result with
      | None -> false
      | Some replay ->
        Trace.sched_points original.Interp.trace
        = Trace.sched_points replay.Interp.trace
        && original.Interp.outputs = replay.Interp.outputs)

(* Value determinism: each thread's observed read values replay exactly,
   whatever schedule the replayer picks. *)
let prop_value_thread_projection =
  QCheck2.Test.make ~name:"value replay preserves per-thread read projections"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run Recorder.value labeled wseed in
      let handle = Oracle.value_det ~seed:(wseed + 1) log in
      let replay =
        Interp.run ~max_steps:100_000 labeled handle.Oracle.world
      in
      (* generated programs always terminate; a hung replay is a bug *)
      replay.Interp.status = Interp.Done
      && List.for_all
           (fun tid ->
             Trace.reads_by original.Interp.trace tid
             = Trace.reads_by replay.Interp.trace tid)
           [ 0; 1; 2 ])

(* Value determinism pins each thread's outputs — but not their global
   interleaving across threads: that is precisely iDNA's relaxation (no
   cross-CPU causal order), and qcheck found the counterexample that keeps
   this property honest. *)
let outputs_by_thread (r : Interp.result) tid =
  Trace.fold
    (fun acc (e : Event.t) ->
      match e.Event.kind with
      | Event.Out io when e.Event.tid = tid ->
        (io.Event.chan, io.Event.value.Value.v) :: acc
      | _ -> acc)
    [] r.Interp.trace
  |> List.rev

let prop_value_outputs =
  QCheck2.Test.make ~name:"value replay reproduces per-thread outputs"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run Recorder.value labeled wseed in
      let handle = Oracle.value_det ~seed:(wseed + 7) log in
      let replay = Interp.run ~max_steps:100_000 labeled handle.Oracle.world in
      List.for_all
        (fun tid -> outputs_by_thread original tid = outputs_by_thread replay tid)
        [ 0; 1; 2 ])

(* RCSE at always-high fidelity is perfect determinism. *)
let prop_rcse_full_fidelity_roundtrip =
  QCheck2.Test.make ~name:"always-high rcse replays like perfect determinism"
    ~count:40 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let recorder =
        Recorder.rcse (Fidelity_level.always Fidelity_level.High)
      in
      let original, log = record_run recorder labeled wseed in
      let handle = Oracle.rcse ~seed:1 log in
      let replay =
        Interp.run ~max_steps:100_000 ~abort:handle.Oracle.abort labeled
          handle.Oracle.world
      in
      (not (handle.Oracle.violated ()))
      && original.Interp.outputs = replay.Interp.outputs)

(* The same production seed always yields the same log (recording is a
   pure function of program and world). *)
let prop_recording_deterministic =
  QCheck2.Test.make ~name:"recording is deterministic" ~count:60
    ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let _, log1 = record_run Recorder.value labeled wseed in
      let _, log2 = record_run Recorder.value labeled wseed in
      log1.Log.entries = log2.Log.entries)

(* Output-determinism acceptance: the original execution trivially
   satisfies its own output constraint, and the streaming prefix check
   agrees with the final check on it. *)
let prop_output_constraint_reflexive =
  QCheck2.Test.make ~name:"output constraints accept the original run"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let original, log = record_run Recorder.output labeled wseed in
      let abort = Constraints.output_prefix_abort log () in
      let streaming_ok = ref true in
      Trace.iter
        (fun e -> if abort e <> None then streaming_ok := false)
        original.Interp.trace;
      Constraints.outputs_match log original && !streaming_ok)

(* Serialization: parse (print log) = log, over logs produced by real
   recorders on random programs. *)
let prop_log_io_roundtrip =
  QCheck2.Test.make ~name:"log serialization round-trips" ~count:60
    ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let recorder =
        match pseed mod 5 with
        | 0 -> Recorder.perfect
        | 1 -> Recorder.value
        | 2 -> Recorder.sync
        | 3 -> Recorder.output
        | _ -> Recorder.rcse (Fidelity_level.always Fidelity_level.High)
      in
      let _, log = record_run recorder labeled wseed in
      match Log_io.of_string (Log_io.to_string log) with
      | Ok log' ->
        log'.Log.entries = log.Log.entries
        && log'.Log.base_steps = log.Log.base_steps
        && log'.Log.failure = log.Log.failure
      | Error _ -> false)

(* Serialization survives arbitrary byte strings in payload positions:
   inputs, read values, marks and crash messages. *)
let prop_log_io_arbitrary_payloads =
  QCheck2.Test.make ~name:"log serialization survives arbitrary payloads"
    ~count:100 ~print:(fun ss -> String.concat "|" (List.map String.escaped ss))
    QCheck2.Gen.(list_size (int_range 1 8) string)
    (fun payloads ->
      let entries =
        List.concat_map
          (fun s ->
            [
              Log.Input { tid = 0; chan = "c"; value = Value.str s };
              Log.Read_val
                { tid = 1; sid = 2; kind = Log.Mem; value = Value.str s };
              Log.Mark s;
            ])
          payloads
      in
      let log =
        Log.make ~recorder:"prop" ~entries ~base_steps:1
          ~failure:(Some (Mvm.Failure.Crash { sid = 1; msg = List.hd payloads }))
          ()
      in
      match Log_io.of_string (Log_io.to_string log) with
      | Ok log' -> log'.Log.entries = entries && log'.Log.failure = log.Log.failure
      | Error _ -> false)

(* Graceful degradation: whatever single line of a valid v2 log is
   corrupted — magic, header, entry or trailer — salvage loading still
   returns a log, loses at most that one entry, keeps the survivors in
   order, and reports the damage. *)
let prop_salvage_single_line_corruption =
  QCheck2.Test.make ~name:"salvage survives any single-line corruption"
    ~count:80
    ~print:(fun ((pseed, wseed), line) ->
      Printf.sprintf "%s, corrupt line %d" (print_scenario (pseed, wseed)) line)
    QCheck2.Gen.(pair scenario_gen (int_range 0 10_000))
    (fun ((pseed, wseed), line) ->
      let labeled = program_of pseed in
      let _, log = record_run Recorder.perfect labeled wseed in
      let lines =
        String.split_on_char '\n' (Log_io.to_string log)
        |> List.filter (fun l -> String.length l > 0)
      in
      let ix = line mod List.length lines in
      let damaged =
        String.concat "\n"
          (List.mapi (fun k l -> if k = ix then "!!corrupted!!" else l) lines)
      in
      let rec subsequence xs ys =
        match (xs, ys) with
        | [], _ -> true
        | _, [] -> false
        | x :: xs', y :: ys' ->
          if x = y then subsequence xs' ys' else subsequence xs ys'
      in
      match Log_io.of_string_report ~mode:Log_io.Salvage damaged with
      | Ok (log', damage) ->
        Log_io.is_damaged damage
        && List.length log'.Log.entries >= List.length log.Log.entries - 1
        && subsequence log'.Log.entries log.Log.entries
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* node-fault lowering *)

(* Node-granular faults are sugar, not new nondeterminism: lowering a
   merged plan (node faults + channel/thread primitives) yields exactly
   the plan a human would write by hand against the node map — and
   injecting either into the same world drives a step-for-step identical
   execution. The law quantifies over partition shapes, fault windows,
   which node faults ride along, and the production seed. *)
let node_law_app = Ddet_apps.Msg_server.app ()

let prop_node_faults_are_sugar =
  QCheck2.Test.make ~name:"node faults lower to their thread-level spelling"
    ~count:60
    ~print:(fun (shape, from, len, flags, wseed) ->
      Printf.sprintf "shape %d, window %d+%d, flags %d, world seed %d" shape
        from len flags wseed)
    QCheck2.Gen.(
      tup5 (int_range 0 2) (int_range 0 200) (int_range 1 200) (int_range 0 7)
        (int_range 1 1_000))
    (fun (shape, from, len, flags, wseed) ->
      let app = node_law_app in
      let map = Option.get app.Ddet_apps.App.nodes in
      let labeled = app.Ddet_apps.App.labeled in
      let prog = labeled.Label.prog in
      let groups =
        match shape with
        | 0 -> [ [ "server"; "p0" ]; [ "p1" ] ]
        | 1 -> [ [ "server" ]; [ "p0"; "p1" ] ]
        | _ -> [ [ "server" ]; [ "p0" ]; [ "p1" ] ]
      in
      let until = from + len in
      let crash_node = [| "server"; "p0"; "p1" |].(flags mod 3) in
      (* sugared spelling and its hand-desugared twin, built in lockstep:
         each (fault, expansion) pair keeps the two plans aligned *)
      let pieces =
        [ ( Fault.partition ~groups ~from_step:from ~until_step:until,
            List.map
              (fun chan -> Fault.delay ~chan ~from_step:from ~until_step:until)
              (Node.cut_channels map prog ~groups) ) ]
        @ (if flags land 1 = 1 then
             [ ( Fault.node_crash ~node:crash_node ~at_step:until,
                 List.map
                   (fun tid -> Fault.crash ~tid ~at_step:until)
                   (Node.members map prog crash_node) ) ]
           else [])
        @ (if flags land 2 = 2 then
             [ ( Fault.node_restart ~node:"p1" ~from_step:from ~until_step:until,
                 List.map
                   (fun tid -> Fault.stall ~tid ~from_step:from ~until_step:until)
                   (Node.members map prog "p1") ) ]
           else [])
        (* a channel primitive merged in: lowering must pass it through *)
        @ [ (Fault.drop ~prob:0.2 "done0", [ Fault.drop ~prob:0.2 "done0" ]) ]
      in
      let sugared = Fault.make ~seed:wseed (List.map fst pieces) in
      let by_hand = Fault.make ~seed:wseed (List.concat_map snd pieces) in
      let lowered = Fault.lower ~map ~prog sugared in
      (* data identity: lowering IS the hand spelling *)
      (not (Fault.has_node_faults lowered))
      && Fault.to_string lowered = Fault.to_string by_hand
      &&
      (* behavioral identity, step for step *)
      let run plan =
        Interp.run ~max_steps:5_000 labeled
          (Fault.inject plan (World.random ~seed:wseed))
      in
      let a = run lowered and b = run by_hand in
      Trace.events a.Interp.trace = Trace.events b.Interp.trace
      && a.Interp.outputs = b.Interp.outputs
      && a.Interp.failure = b.Interp.failure
      && a.Interp.steps = b.Interp.steps)

(* ------------------------------------------------------------------ *)
(* cost model algebra *)

let entry_gen =
  QCheck2.Gen.(
    oneof
      [
        return (Log.Sched { tid = 0; sid = 1 });
        return (Log.Sync { tid = 0; sid = 1; op = Log.Op_spawn });
        map (fun n -> Log.Input { tid = 0; chan = "c"; value = Value.int n }) small_int;
        map
          (fun s ->
            Log.Read_val { tid = 0; sid = 1; kind = Log.Mem; value = Value.str s })
          string_small;
        return (Log.Failure_desc Mvm.Failure.Hang);
        return (Log.Mark "m");
      ])

let prop_cost_nonnegative =
  QCheck2.Test.make ~name:"entry costs are non-negative" ~count:200 entry_gen
    (fun e -> Cost_model.entry_cost Cost_model.default e >= 0.0)

let prop_overhead_lower_bound =
  QCheck2.Test.make ~name:"overhead is at least 1.0" ~count:100
    QCheck2.Gen.(list_size (int_range 0 50) entry_gen)
    (fun entries ->
      let log = Log.make ~recorder:"t" ~entries ~base_steps:10 ~failure:None () in
      Cost_model.overhead Cost_model.default log >= 1.0)

let prop_cost_additive =
  QCheck2.Test.make ~name:"recording cost is additive over entries" ~count:100
    QCheck2.Gen.(pair (list_size (int_range 0 20) entry_gen) (list_size (int_range 0 20) entry_gen))
    (fun (e1, e2) ->
      let mk entries = Log.make ~recorder:"t" ~entries ~base_steps:1 ~failure:None () in
      let c l = Cost_model.recording_cost Cost_model.default l in
      abs_float (c (mk (e1 @ e2)) -. (c (mk e1) +. c (mk e2))) < 1e-9)

(* ------------------------------------------------------------------ *)
(* prng and containers *)

let prop_prng_range =
  QCheck2.Test.make ~name:"prng int stays in range" ~count:200
    QCheck2.Gen.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      v >= 0 && v < bound)

let prop_prng_deterministic =
  QCheck2.Test.make ~name:"prng streams are seed-deterministic" ~count:100
    QCheck2.Gen.int (fun seed ->
      let a = Prng.create seed and b = Prng.create seed in
      List.init 20 (fun _ -> Prng.int a 1000)
      = List.init 20 (fun _ -> Prng.int b 1000))

(* lengths up to 1,500 cross several 256-slot chunk boundaries; the
   refill after [clear] runs over the chunks the first fill left *)
let prop_vec_models_list =
  let vec_list = QCheck2.Gen.(list_size (int_range 0 1500) small_int) in
  QCheck2.Test.make ~name:"vec behaves like a list" ~count:200
    QCheck2.Gen.(pair vec_list vec_list)
    (fun (xs, ys) ->
      let models v xs =
        let n = List.length xs in
        let even x = x mod 2 = 0 in
        let out_of_bounds i =
          match Vec.get v i with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        Vec.to_list v = xs
        && Vec.length v = n
        && List.for_all2 ( = ) (List.init n (Vec.get v)) xs
        && out_of_bounds (-1) && out_of_bounds n
        && Vec.fold (fun acc x -> acc + x) 0 v = List.fold_left ( + ) 0 xs
        && Vec.filter even v = List.filter even xs
        && Vec.count even v = List.length (List.filter even xs)
        && Vec.exists (fun x -> x = 7) v = List.mem 7 xs
        && (let visits = ref 0 in
            (* a hit only at the last slot: the walk crosses every chunk *)
            Vec.exists (fun _ -> incr visits; !visits = n) v = (n > 0)
            && !visits = n)
        &&
        let seen = ref [] in
        Vec.iter (fun x -> seen := x :: !seen) v;
        List.rev !seen = xs
      in
      let v = Vec.of_list xs in
      models v xs
      &&
      (Vec.clear v;
       List.iter (Vec.push v) ys;
       models v ys))

let prop_taint_union =
  QCheck2.Test.make ~name:"taint union is commutative and idempotent" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 0 5) (string_size (int_range 1 3)))
                   (list_size (int_range 0 5) (string_size (int_range 1 3))))
    (fun (xs, ys) ->
      let of_list l = List.fold_left (fun t x -> Taint.union t (Taint.singleton x)) Taint.empty l in
      let a = of_list xs and b = of_list ys in
      Taint.equal (Taint.union a b) (Taint.union b a)
      && Taint.equal (Taint.union a a) a)

(* Trace.scalar_at agrees with a reference fold over writes. *)
let prop_scalar_reconstruction =
  QCheck2.Test.make ~name:"scalar_at agrees with the write history" ~count:60
    ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let r = Interp.run labeled (World.random ~seed:wseed) in
      let writes = Trace.writes_to_scalar r.Interp.trace "s0" in
      let final = Trace.scalar_at r.Interp.trace "s0" ~init:(Value.int 0) ~step:max_int in
      match List.rev writes with
      | [] -> Value.equal final (Value.int 0)
      | (_, _, last) :: _ -> Value.equal final last)

(* ------------------------------------------------------------------ *)
(* checkpointed resumable search *)

(* Resume parity, the crash-tolerance contract as a law: kill a search at
   a random attempt boundary (simulated with a truncated budget plus a
   checkpoint sink at a random interval — the engines flush the frontier
   when the budget runs out, so the file on disk is exactly what a crash
   after the last atomic write leaves; test_crash.ml ties this to a real
   SIGKILL), then resume from that file. The resumed search must reach
   the uninterrupted search's outcome: same counters, same verdict, same
   reproduction. Randomizes the engine too. *)
let same_search_outcome (a : Search.outcome) (b : Search.outcome) =
  let proj (r : Interp.result) =
    (r.Interp.status, r.Interp.outputs, r.Interp.failure)
  in
  a.Search.stats.Search.attempts = b.Search.stats.Search.attempts
  && a.Search.stats.Search.total_steps = b.Search.stats.Search.total_steps
  && a.Search.stats.Search.pruned = b.Search.stats.Search.pruned
  && a.Search.stats.Search.success = b.Search.stats.Search.success
  && (match (a.Search.result, b.Search.result) with
     | None, None -> true
     | Some ra, Some rb -> proj ra = proj rb
     | _ -> false)
  &&
  match (a.Search.partial, b.Search.partial) with
  | None, None -> true
  | Some pa, Some pb ->
    pa.Search.attempt = pb.Search.attempt
    && abs_float (pa.Search.closeness -. pb.Search.closeness) < 1e-9
    && proj pa.Search.best = proj pb.Search.best
  | _ -> false

let prop_resume_parity =
  QCheck2.Test.make ~name:"resumed search equals the uninterrupted search"
    ~count:40
    ~print:(fun (pseed, every, kill, engine) ->
      Printf.sprintf "program seed %d, sink every %d, kill point %d, engine %s"
        pseed every kill
        [| "restarts"; "inputs"; "dfs" |].(engine))
    QCheck2.Gen.(
      quad (int_range 1 5_000) (int_range 1 8) (int_range 1 1_000)
        (int_range 0 2))
    (fun (pseed, every, kill, engine) ->
      let labeled = program_of pseed in
      let budget =
        {
          Search.max_attempts = 12;
          max_steps_per_attempt = 2_000;
          base_seed = pseed;
          deadline_s = None;
        }
      in
      let base =
        (Engine.exec_schedule ~budget:budget.Search.max_steps_per_attempt
           ~prefix:[||] labeled)
          .Engine.result
      in
      let accept r =
        r.Interp.outputs <> base.Interp.outputs
        || r.Interp.failure <> base.Interp.failure
      in
      let score r =
        if accept r then 1.0
        else float_of_int (List.length r.Interp.outputs) /. 100.
      in
      let run :
          ?checkpoint:Checkpoint.sink ->
          ?resume:Checkpoint.t ->
          Search.budget ->
          Search.outcome =
        match engine with
        | 0 ->
          fun ?checkpoint ?resume b ->
            Search.random_restarts ~score ?checkpoint ?resume b
              ~make:(fun ~attempt ->
                (World.random ~seed:(b.Search.base_seed + attempt), None))
              ~spec:Spec.accept_all ~accept labeled
        | 1 ->
          fun ?checkpoint ?resume b ->
            Search.enumerate_inputs ~score ?checkpoint ?resume b
              ~spec:Spec.accept_all ~accept labeled
        | _ ->
          fun ?checkpoint ?resume b ->
            Search.dfs_schedules ~score ?checkpoint ?resume b
              ~spec:Spec.accept_all ~accept labeled
      in
      let full = run budget in
      (* kill points live strictly inside the search: after at least one
         judged attempt, before the attempt that decides it *)
      let last =
        if full.Search.stats.Search.success then
          full.Search.stats.Search.attempts - 1
        else full.Search.stats.Search.attempts
      in
      if last < 1 then true
      else begin
        let kill_at = 1 + (kill mod last) in
        let file = Stdlib.Filename.temp_file "ddet_prop" ".ckpt" in
        let sink = Checkpoint.sink ~every file in
        let (_ : Search.outcome) =
          run ~checkpoint:sink { budget with Search.max_attempts = kill_at }
        in
        let verdict =
          match Checkpoint.load file with
          | Error e ->
            QCheck2.Test.fail_reportf "killed search left no checkpoint: %s" e
          | Ok ckpt -> same_search_outcome full (run ~resume:ckpt budget)
        in
        Stdlib.Sys.remove file;
        verdict
      end)

(* ------------------------------------------------------------------ *)
(* parallel scheduler parity *)

(* The law of the chunked scheduler: random restarts through the pool
   at jobs > 1 are byte-identical to the in-order loop on random
   programs. No attempt-cost estimate is passed, so the min-work
   threshold cannot take the in-order path: with two or more cores the
   pool runs on them; on one core both sides run in order, as the
   product does there. *)
let par_budget pseed =
  {
    Search.max_attempts = 12;
    max_steps_per_attempt = 2_000;
    base_seed = pseed;
    deadline_s = None;
  }

let deviation_accept labeled budget =
  let base =
    (Engine.exec_schedule ~budget:budget.Search.max_steps_per_attempt
       ~prefix:[||] labeled)
      .Engine.result
  in
  fun (r : Interp.result) ->
    r.Interp.outputs <> base.Interp.outputs
    || r.Interp.failure <> base.Interp.failure

let byte_identical_results (a : Search.outcome) (b : Search.outcome) =
  match (a.Search.result, b.Search.result) with
  | Some ra, Some rb ->
    Trace.events ra.Interp.trace = Trace.events rb.Interp.trace
  | None, None -> true
  | _ -> false

let prop_parallel_parity =
  QCheck2.Test.make ~name:"parallel search equals sequential" ~count:24
    ~print:(Printf.sprintf "program seed %d")
    QCheck2.Gen.(int_range 1 5_000)
    (fun pseed ->
      let labeled = program_of pseed in
      let budget = par_budget pseed in
      let accept = deviation_accept labeled budget in
      let score r =
        if accept r then 1.0
        else float_of_int (List.length r.Interp.outputs) /. 100.
      in
      let spec = Spec.accept_all in
      let make ~attempt =
        (World.random ~seed:(budget.Search.base_seed + attempt), None)
      in
      let seq = Search.random_restarts ~score budget ~make ~spec ~accept labeled in
      let par =
        Search.random_restarts ~jobs:3 ~score budget ~make ~spec ~accept labeled
      in
      same_search_outcome seq par && byte_identical_results seq par)

(* Poison parity: attempts that deterministically crash are retried and
   then skipped identically by the sequential supervisor and the parallel
   pool — same surviving outcome, same poisoned attempt indices. *)
let poisoned_attempts (o : Search.outcome) =
  List.sort compare
    (List.filter_map
       (fun (i : Search.incident) ->
         if i.Search.poisoned then Some i.Search.at_attempt else None)
       o.Search.stats.Search.incidents)

let prop_parallel_poison_parity =
  QCheck2.Test.make
    ~name:"poisoned attempts leave parallel and sequential in lockstep"
    ~count:20
    ~print:(fun (pseed, modk) ->
      Printf.sprintf "program seed %d, crash every %d-th attempt" pseed modk)
    QCheck2.Gen.(pair (int_range 1 5_000) (int_range 2 5))
    (fun (pseed, modk) ->
      let labeled = program_of pseed in
      let budget = par_budget pseed in
      let accept = deviation_accept labeled budget in
      let make ~attempt =
        if attempt mod modk = 0 then failwith "injected attempt crash"
        else (World.random ~seed:(budget.Search.base_seed + attempt), None)
      in
      let spec = Spec.accept_all in
      let seq = Search.random_restarts budget ~make ~spec ~accept labeled in
      let par =
        Search.random_restarts ~jobs:3 budget ~make ~spec ~accept labeled
      in
      same_search_outcome seq par
      && byte_identical_results seq par
      && poisoned_attempts seq = poisoned_attempts par)

(* ------------------------------------------------------------------ *)
(* one interpreter: Interp.run against the reference AST walker

   Production runs, recordings and perfect replay call Interp.run, which
   compiles the program and runs the compiled form. Each law runs one of
   those worlds twice — through the library's call site and through the
   reference walker (Ref_interp) under an identically built world — and
   asks for the same status, steps, events, outputs and failure; for a
   recording, also the same log bytes. Plain random worlds and the
   perfect oracle never force a receive and exercise the compiled
   interpreter's candidate cache; so do fault-injected worlds, except
   under a plan with a [Duplicate] clause, which may force anything and
   take the uncached path. *)

let parity_apps =
  [|
    Ddet_apps.Miniht.app ();
    Ddet_apps.Cloudstore.app ();
    Ddet_apps.Msg_server.app ();
    Ddet_apps.Adder.app ();
    Ddet_apps.Bufover.app ();
  |]

(* The plans a world may run under: none; a thread- and channel-level
   plan built from the program's own channels; and, for apps with a node
   map, the partition plans the distributed-evidence suite records
   under, lowered as a session lowers them. *)
(* the channels [pick] finds in [prog]'s statements, first use first *)
let program_chans pick prog =
  Ast.fold_stmts
    (fun acc _ (st : Ast.stmt) ->
      match pick st.Ast.node with
      | Some c when not (List.mem c acc) -> c :: acc
      | _ -> acc)
    [] prog
  |> List.rev

let sent_chans = program_chans (function Ast.Send (c, _) -> Some c | _ -> None)

let parity_plans (app : Ddet_apps.App.t) =
  let prog = app.Ddet_apps.App.labeled.Label.prog in
  let sent = sent_chans prog in
  let inputs =
    program_chans (function Ast.Input (_, c) -> Some c | _ -> None) prog
  in
  let nth_or l k f = match List.nth_opt l k with Some c -> [ f c ] | None -> [] in
  let generic =
    Fault.make ~seed:11
      (nth_or sent 0 (Fault.drop ~prob:0.15)
      @ nth_or sent 1 (fun chan -> Fault.delay ~chan ~from_step:10 ~until_step:80)
      @ nth_or sent 2 (Fault.duplicate ~prob:0.2)
      @ nth_or inputs 0 (Fault.perturb ~prob:0.2)
      @ [
          Fault.stall ~tid:1 ~from_step:20 ~until_step:120;
          Fault.crash ~tid:2 ~at_step:300;
        ])
  in
  let node =
    match app.Ddet_apps.App.name with
    | "msg_server" -> [ "seed=5,partition:server+p0|p1:10-80,nodecrash:p1:330" ]
    | "cloudstore" ->
      [ "seed=2,partition:coord+primary+client0+client1|secondary:50-400" ]
    | _ -> []
  in
  Array.of_list
    (Fault.none :: generic
    :: List.map
         (fun s -> Ddet_apps.App.lower_faults app (Result.get_ok (Fault.of_string s)))
         node)

(* Production runs under every plan, pinned: each parity app under each
   of its [parity_plans] for seeds 1-8 must end in the same status after
   the same number of steps, with the same trace ([Log_io.crc_hex] of
   [Format.asprintf "%a" Trace.pp] of it). How [Fault.inject] consults
   its plan is an implementation detail; which thread it deschedules,
   which delivery it fails and which message it duplicates is not, and a
   change to one such decision fails here, naming app, plan and seed.
   The pins are not regenerated to make a rewrite pass. *)

(* (app, plan index, seed, status, steps, CRC32 of the printed trace) *)
let fault_pins =
  [
    ("miniht", 0, 1, "done", 817, "c3ff891c");
    ("miniht", 0, 2, "done", 788, "7bb8dda8");
    ("miniht", 0, 3, "done", 802, "7a750ffd");
    ("miniht", 0, 4, "done", 770, "6062f8f5");
    ("miniht", 0, 5, "done", 850, "9405e8fb");
    ("miniht", 0, 6, "done", 780, "00e14462");
    ("miniht", 0, 7, "done", 770, "ca8ceccb");
    ("miniht", 0, 8, "done", 837, "9de464ef");
    ("miniht", 1, 1, "done", 760, "ff5b82d9");
    ("miniht", 1, 2, "done", 781, "cf536ee9");
    ("miniht", 1, 3, "done", 745, "1b9f1f36");
    ("miniht", 1, 4, "done", 743, "7595846d");
    ("miniht", 1, 5, "done", 740, "f7c9b4e6");
    ("miniht", 1, 6, "done", 738, "3ab3f391");
    ("miniht", 1, 7, "done", 739, "ad0e4d86");
    ("miniht", 1, 8, "done", 735, "4e1e641c");
    ("cloudstore", 0, 1, "done", 878, "e825d7f8");
    ("cloudstore", 0, 2, "done", 1025, "31d38818");
    ("cloudstore", 0, 3, "done", 1030, "0bfbd506");
    ("cloudstore", 0, 4, "done", 929, "bc177025");
    ("cloudstore", 0, 5, "done", 922, "06203df6");
    ("cloudstore", 0, 6, "done", 877, "7e29c282");
    ("cloudstore", 0, 7, "done", 919, "521c0ff7");
    ("cloudstore", 0, 8, "done", 883, "5a12ec66");
    ("cloudstore", 1, 1, "step-limit", 200000, "729a772a");
    ("cloudstore", 1, 2, "step-limit", 200000, "106df79b");
    ("cloudstore", 1, 3, "done", 1147, "75a1ef0c");
    ("cloudstore", 1, 4, "done", 910, "deb20c74");
    ("cloudstore", 1, 5, "done", 1068, "bde9d5b8");
    ("cloudstore", 1, 6, "step-limit", 200000, "4fbe76ec");
    ("cloudstore", 1, 7, "step-limit", 200000, "0ce16dd6");
    ("cloudstore", 1, 8, "step-limit", 200000, "867591fb");
    ("cloudstore", 2, 1, "done", 879, "13bd3c58");
    ("cloudstore", 2, 2, "done", 1025, "c2838d91");
    ("cloudstore", 2, 3, "done", 999, "2a20dcaa");
    ("cloudstore", 2, 4, "done", 951, "e7a388ab");
    ("cloudstore", 2, 5, "done", 915, "f86303dd");
    ("cloudstore", 2, 6, "done", 877, "b759cec0");
    ("cloudstore", 2, 7, "done", 919, "2cc17190");
    ("cloudstore", 2, 8, "done", 883, "70d4fff0");
    ("msg_server", 0, 1, "done", 338, "71aa8465");
    ("msg_server", 0, 2, "done", 347, "ef5bb774");
    ("msg_server", 0, 3, "done", 349, "78fc46b8");
    ("msg_server", 0, 4, "done", 338, "f75635b9");
    ("msg_server", 0, 5, "done", 304, "b2c11840");
    ("msg_server", 0, 6, "done", 302, "7fb2e251");
    ("msg_server", 0, 7, "done", 310, "05c36bf2");
    ("msg_server", 0, 8, "done", 341, "3f74fa4d");
    ("msg_server", 1, 1, "done", 320, "2ffa622d");
    ("msg_server", 1, 2, "done", 339, "466f26cb");
    ("msg_server", 1, 3, "step-limit", 200000, "39b283f0");
    ("msg_server", 1, 4, "done", 346, "6fad8ddd");
    ("msg_server", 1, 5, "step-limit", 200000, "ba526792");
    ("msg_server", 1, 6, "done", 297, "308c4a5d");
    ("msg_server", 1, 7, "step-limit", 200000, "5065bd3c");
    ("msg_server", 1, 8, "step-limit", 200000, "5e66d6fa");
    ("msg_server", 2, 1, "done", 338, "71aa8465");
    ("msg_server", 2, 2, "done", 347, "5d4eedc6");
    ("msg_server", 2, 3, "done", 349, "b53ac59d");
    ("msg_server", 2, 4, "done", 338, "f75635b9");
    ("msg_server", 2, 5, "done", 304, "b2c11840");
    ("msg_server", 2, 6, "done", 302, "7fb2e251");
    ("msg_server", 2, 7, "done", 310, "05c36bf2");
    ("msg_server", 2, 8, "done", 341, "1f36818a");
    ("adder", 0, 1, "done", 5, "d182a910");
    ("adder", 0, 2, "done", 5, "eb4f0d1f");
    ("adder", 0, 3, "done", 5, "3169124a");
    ("adder", 0, 4, "done", 5, "ba9a3592");
    ("adder", 0, 5, "done", 5, "1cbe217e");
    ("adder", 0, 6, "done", 5, "36719a89");
    ("adder", 0, 7, "done", 5, "38f2a53f");
    ("adder", 0, 8, "done", 5, "932fb890");
    ("adder", 1, 1, "done", 5, "f25abf66");
    ("adder", 1, 2, "done", 5, "f25abf66");
    ("adder", 1, 3, "done", 5, "36719a89");
    ("adder", 1, 4, "done", 5, "ae9541bf");
    ("adder", 1, 5, "done", 5, "a0318f99");
    ("adder", 1, 6, "done", 5, "ae9541bf");
    ("adder", 1, 7, "done", 5, "a148b510");
    ("adder", 1, 8, "done", 5, "a148b510");
    ("bufover", 0, 1, "crashed: crash@5: array buf index 8 out of bounds (length 8)", 28, "8e8e1a49");
    ("bufover", 0, 2, "done", 5, "83ddff3a");
    ("bufover", 0, 3, "done", 11, "3e3ce6c4");
    ("bufover", 0, 4, "crashed: crash@5: array buf index 8 out of bounds (length 8)", 28, "54236a6a");
    ("bufover", 0, 5, "crashed: crash@5: array buf index 8 out of bounds (length 8)", 28, "5a4bb66d");
    ("bufover", 0, 6, "done", 23, "7b6e9ed8");
    ("bufover", 0, 7, "done", 26, "e9e6f07c");
    ("bufover", 0, 8, "done", 5, "83ddff3a");
    ("bufover", 1, 1, "done", 8, "9ab901c5");
    ("bufover", 1, 2, "done", 8, "9ab901c5");
    ("bufover", 1, 3, "done", 8, "9ab901c5");
    ("bufover", 1, 4, "done", 8, "9ab901c5");
    ("bufover", 1, 5, "done", 8, "9ab901c5");
    ("bufover", 1, 6, "done", 8, "9ab901c5");
    ("bufover", 1, 7, "done", 8, "9ab901c5");
    ("bufover", 1, 8, "done", 8, "9ab901c5");
  ]

let fault_pin_cases =
  List.map
    (fun ai ->
      let app = parity_apps.(ai) in
      let name = app.Ddet_apps.App.name in
      let plans = parity_plans app in
      List.init (Array.length plans) (fun pi ->
          Alcotest.test_case (Printf.sprintf "%s plan %d" name pi) `Quick
            (fun () ->
              let pins =
                List.filter (fun (a, p, _, _, _, _) -> a = name && p = pi) fault_pins
              in
              Alcotest.(check int) "seeds pinned" 8 (List.length pins);
              List.iter
                (fun (_, _, seed, status, steps, crc) ->
                  let r =
                    Ddet_apps.App.production_run ~faults:plans.(pi) app ~seed
                  in
                  let what = Printf.sprintf "seed %d: " seed in
                  Alcotest.(check string) (what ^ "status") status
                    (Interp.status_to_string r.Interp.status);
                  Alcotest.(check int) (what ^ "steps") steps r.Interp.steps;
                  Alcotest.(check string) (what ^ "trace crc") crc
                    (Log_io.crc_hex
                       (Format.asprintf "%a" Trace.pp r.Interp.trace)))
                pins)))
    (List.init (Array.length parity_apps) Fun.id)
  |> List.concat

let same_run (a : Interp.result) (b : Interp.result) =
  a.Interp.status = b.Interp.status
  && a.Interp.steps = b.Interp.steps
  && Trace.events a.Interp.trace = Trace.events b.Interp.trace
  && a.Interp.outputs = b.Interp.outputs
  && a.Interp.failure = b.Interp.failure

let parity_gen =
  QCheck2.Gen.(
    triple
      (int_range 0 (Array.length parity_apps - 1))
      (int_range 1 1_000) (int_range 0 3))

let print_parity (ai, seed, pi) =
  Printf.sprintf "%s, seed %d, plan %d" parity_apps.(ai).Ddet_apps.App.name
    seed pi

(* the app, its judged-run spec and the world a production run of [seed]
   under plan [pi] uses *)
let parity_case (ai, seed, pi) =
  let app = parity_apps.(ai) in
  let plans = parity_plans app in
  let plan = plans.(pi mod Array.length plans) in
  (app, plan, fun () -> Fault.inject plan (World.random ~seed))

let prop_production_parity =
  QCheck2.Test.make ~name:"production runs match the reference walker"
    ~count:60 ~print:print_parity parity_gen (fun case ->
      let app, plan, world = parity_case case in
      let _, seed, _ = case in
      let lib = Ddet_apps.App.production_run ~faults:plan app ~seed in
      let reference =
        Spec.apply app.Ddet_apps.App.spec
          (Ref_interp.run app.Ddet_apps.App.labeled (world ()))
      in
      same_run lib reference)

let parity_recorders =
  [|
    (fun () -> Recorder.perfect);
    (fun () -> Recorder.value);
    (fun () -> Recorder.sync);
    (fun () -> Recorder.output);
    (fun () -> Recorder.failure);
    (fun () -> Recorder.rcse (Fidelity_level.always Fidelity_level.High));
  |]

(* the log a session ships: the plan rides in the header *)
let with_plan plan log =
  if Fault.is_empty plan then log else { log with Log.faults = Some plan }

(* one recording driver, run once over the interpreter and once over the
   reference walker (its [~run]): the same judged run, the same log bytes *)
let prop_recording_parity =
  QCheck2.Test.make
    ~name:"recordings match the reference walker, log bytes included"
    ~count:60
    ~print:(fun (case, ri) -> Printf.sprintf "%s, recorder %d" (print_parity case) ri)
    QCheck2.Gen.(pair parity_gen (int_range 0 (Array.length parity_recorders - 1)))
    (fun (case, ri) ->
      let app, plan, world = parity_case case in
      let labeled = app.Ddet_apps.App.labeled and spec = app.Ddet_apps.App.spec in
      let lib, lib_log =
        Recorder.record (parity_recorders.(ri) ()) labeled ~spec ~world:(world ())
      in
      let reference, ref_log =
        Recorder.record
          ~run:(fun ~monitors labeled world -> Ref_interp.run ~monitors labeled world)
          (parity_recorders.(ri) ()) labeled ~spec ~world:(world ())
      in
      same_run lib reference
      && Log_io.to_string (with_plan plan lib_log)
         = Log_io.to_string (with_plan plan ref_log))

(* Perfect replay: the library's Replayer.perfect against the walker
   under a fresh perfect oracle, its abort hook attached and the log's
   fault plan re-injected as the replayer does. *)
let prop_perfect_replay_parity =
  QCheck2.Test.make ~name:"perfect replays match the reference walker"
    ~count:60 ~print:print_parity parity_gen (fun case ->
      let app, plan, world = parity_case case in
      let labeled = app.Ddet_apps.App.labeled and spec = app.Ddet_apps.App.spec in
      let _, log =
        Recorder.record Recorder.perfect labeled ~spec ~world:(world ())
      in
      let log = with_plan plan log in
      let outcome = Replayer.perfect labeled ~spec log in
      let lib =
        match (outcome.Replayer.result, outcome.Replayer.partial) with
        | Some r, _ -> r
        | None, Some p -> p.Search.best
        | None, None -> QCheck2.Test.fail_report "perfect replay gave no run"
      in
      let handle = Oracle.perfect log in
      let reference =
        Spec.apply spec
          (Ref_interp.run ~abort:handle.Oracle.abort labeled
             (Fault.inject plan handle.Oracle.world))
      in
      same_run lib reference
      && outcome.Replayer.result <> None
         = ((not (handle.Oracle.violated ()))
           && Constraints.failure_matches log reference))

(* Oracle worlds: every replay oracle, built twice from the same log and
   seed, runs once through the library interpreter (which caches its
   candidate set unless the world may force anything) and once through
   the walker (which asks the world about every blocked receive at every
   step). Each run gets its own copy of the abort hook [Replayer]
   attaches to that oracle and the environment [Replayer] wraps it in. A
   world that forced more than its {!World.forcing} promise allows would
   make a blocked receive runnable for the walker only, so the two runs
   would part. The log
   comes from the model's own recorder, through
   [Session.prepare]/[record] under the case's plan; partial replay
   steers over a perfect log, as over a complete stitch. *)
type oracle_case = {
  o_name : string;
  o_model : Ddet.Model.t;
  o_build : seed:int -> Log.t -> Oracle.handle;
  o_env : bool;  (** [Replayer] re-injects the log's fault plan *)
  o_abort : Log.t -> Oracle.handle -> Event.t -> string option;
}

let own_abort _ (h : Oracle.handle) = h.Oracle.abort

let oracle_cases =
  [|
    {
      o_name = "value";
      o_model = Ddet.Model.Value;
      o_build = (fun ~seed log -> Oracle.value_det ~seed log);
      o_env = false;
      o_abort = own_abort;
    };
    {
      o_name = "sync";
      o_model = Ddet.Model.Sync;
      o_build = (fun ~seed log -> Oracle.sync ~seed log);
      o_env = false;
      o_abort =
        (fun log h ->
          Constraints.both h.Oracle.abort (Constraints.output_prefix_abort log ()));
    };
    {
      o_name = "rcse strict";
      o_model = Ddet.Model.Rcse Ddet.Model.Code_based;
      o_build = (fun ~seed log -> Oracle.rcse ~strict:true ~seed log);
      o_env = true;
      o_abort = own_abort;
    };
    {
      o_name = "rcse windowed";
      o_model = Ddet.Model.Rcse Ddet.Model.Combined;
      o_build = (fun ~seed log -> Oracle.rcse ~strict:false ~seed log);
      o_env = true;
      o_abort = own_abort;
    };
    {
      o_name = "partial";
      o_model = Ddet.Model.Perfect;
      o_build = (fun ~seed log -> Oracle.partial ~seed log);
      o_env = true;
      o_abort = own_abort;
    };
  |]

(* training an RCSE model is the costly part of a case: once per pair *)
let prepared_tbl = Hashtbl.create 16

let prepared_for ai oi =
  match Hashtbl.find_opt prepared_tbl (ai, oi) with
  | Some p -> p
  | None ->
    let p = Ddet.Session.prepare oracle_cases.(oi).o_model parity_apps.(ai) in
    Hashtbl.replace prepared_tbl (ai, oi) p;
    p

(* every attempt of the pinned replay budget runs at most this long *)
let oracle_max_steps = 20_000

let prop_oracle_parity =
  QCheck2.Test.make ~name:"oracle worlds match the reference walker"
    ~count:100
    ~print:(fun (case, oi) ->
      Printf.sprintf "%s, oracle %s" (print_parity case) oracle_cases.(oi).o_name)
    QCheck2.Gen.(pair parity_gen (int_range 0 (Array.length oracle_cases - 1)))
    (fun (((ai, seed, _) as case), oi) ->
      let app, plan, _ = parity_case case in
      let oc = oracle_cases.(oi) in
      let _, log = Ddet.Session.record ~faults:plan (prepared_for ai oi) ~seed in
      let labeled = app.Ddet_apps.App.labeled in
      let world (h : Oracle.handle) =
        match log.Log.faults with
        | Some plan when oc.o_env -> Fault.inject plan h.Oracle.world
        | _ -> h.Oracle.world
      in
      let lib_h = oc.o_build ~seed log and ref_h = oc.o_build ~seed log in
      let lib =
        Interp.run ~max_steps:oracle_max_steps ~abort:(oc.o_abort log lib_h)
          labeled (world lib_h)
      in
      let reference =
        Ref_interp.run ~max_steps:oracle_max_steps
          ~abort:(oc.o_abort log ref_h) labeled (world ref_h)
      in
      same_run lib reference
      && lib_h.Oracle.violated () = ref_h.Oracle.violated ())

(* The candidate contract: the compiled interpreter hands each world its
   own array, whose first [n] slots are the candidates, and one record
   per thread that it moves in place, so what a world may rely on is
   what it reads inside [pick_thread]. A wrapper copies out the
   (tid, sid, fname) of each of those [n] candidates in each call; the
   copies from the compiled interpreter must equal the reference
   walker's, which builds fresh records and a fresh array at every
   step. Programs are Proggen's and the
   parity apps; worlds are a random one ([Never]), value replay of the
   run's own recording ([Own_steps]: it forces receives) and a random
   one under a plan duplicating on every sent channel ([Anything]: a
   duplicate can wake a blocked receive). *)
let snapshotting (w : World.t) =
  let snaps = ref [] in
  let snapshot (c : World.cand) = (c.World.tid, c.World.sid, c.World.fname) in
  let pick_thread ~step cands n =
    snaps := List.init n (fun k -> snapshot cands.(k)) :: !snaps;
    w.World.pick_thread ~step cands n
  in
  ({ w with World.pick_thread }, fun () -> List.rev !snaps)

let dup_everywhere ~seed (labeled : Label.labeled) =
  Fault.make ~seed
    (List.map (Fault.duplicate ~prob:0.3) (sent_chans labeled.Label.prog))

let snapshot_gen =
  QCheck2.Gen.(
    triple
      (oneof
         [
           map (fun ai -> `App ai) (int_range 0 (Array.length parity_apps - 1));
           map (fun p -> `Gen p) (int_range 1 5_000);
         ])
      (int_range 1 1_000) (int_range 0 2))

let print_snapshot (prog, seed, fi) =
  Printf.sprintf "%s, seed %d, %s"
    (match prog with
    | `App ai -> parity_apps.(ai).Ddet_apps.App.name
    | `Gen p -> Printf.sprintf "proggen %d" p)
    seed
    [| "never"; "own steps"; "anything" |].(fi)

let prop_candidate_snapshots =
  QCheck2.Test.make
    ~name:"candidates seen inside pick_thread match the reference walker"
    ~count:90 ~print:print_snapshot snapshot_gen (fun (prog, seed, fi) ->
      let labeled =
        match prog with
        | `App ai -> parity_apps.(ai).Ddet_apps.App.labeled
        | `Gen p -> program_of p
      in
      let world =
        match fi with
        | 0 -> fun () -> World.random ~seed
        | 1 ->
          let _, log = record_run Recorder.value labeled seed in
          fun () -> (Oracle.value_det ~seed:(seed + 1) log).Oracle.world
        | _ ->
          (* a program that sends nothing gets an empty plan: declare
             [Anything] anyway, which promises nothing *)
          let plan = dup_everywhere ~seed labeled in
          fun () ->
            {
              (Fault.inject plan (World.random ~seed)) with
              World.forcing = World.Anything;
            }
      in
      let lib_w, lib_snaps = snapshotting (world ()) in
      let ref_w, ref_snaps = snapshotting (world ()) in
      let lib = Interp.run ~max_steps:oracle_max_steps labeled lib_w in
      let reference = Ref_interp.run ~max_steps:oracle_max_steps labeled ref_w in
      same_run lib reference && lib_snaps () = ref_snaps ())

(* Allocation per step of a production run (the run and its judging by
   the app's spec), over seeds 1-8 after a warm-up run that compiles the
   program. The candidate records, the candidate array and the PRNG
   allocate nothing per step; what is left is the trace's events and the
   values the program computes. Adder's and bufover's runs are 5-20
   steps, so their per-run set-up outweighs any per-step cost and they
   are not bounded here. *)
let words_per_step_bound = 24.

let production_alloc_case ?faults ~what app =
  Alcotest.test_case
    (Printf.sprintf "%s: at most %.0f minor words per step" what
       words_per_step_bound)
    `Quick (fun () ->
      ignore (Ddet_apps.App.production_run ?faults app ~seed:1);
      let steps = ref 0 in
      let before = Gc.minor_words () in
      for seed = 1 to 8 do
        steps :=
          !steps + (Ddet_apps.App.production_run ?faults app ~seed).Interp.steps
      done;
      let per_step = (Gc.minor_words () -. before) /. float_of_int !steps in
      if per_step > words_per_step_bound then
        Alcotest.failf "%.1f minor words per step over %d steps" per_step !steps)

let alloc_cases =
  List.map
    (fun ai ->
      let app = parity_apps.(ai) in
      production_alloc_case app
        ~what:(app.Ddet_apps.App.name ^ " production run"))
    [ 0; 1; 2 ]

(* Cloudstore under the generic parity plan's Stall and Crash clauses: a
   step with a descheduled thread among the candidates hands the wrapped
   world the live ones, compacted into scratch the scheduler reuses, so
   it allocates no more than any other step. *)
let desched_alloc_case =
  let app = parity_apps.(1) in
  let generic = (parity_plans app).(1) in
  let desched =
    List.filter
      (function Fault.Stall _ | Fault.Crash _ -> true | _ -> false)
      generic.Fault.faults
  in
  production_alloc_case app
    ~faults:{ generic with Fault.faults = desched }
    ~what:
      (app.Ddet_apps.App.name
     ^ " production run under the parity plan's stall and crash clauses")

(* Allocation per step of a recording above the production run of the
   same seed, over seeds 1-8 after a warm-up recording. *)
let recording_alloc_cases what ?config model bounds =
  List.map
    (fun ai ->
      let app = parity_apps.(ai) in
      let bound = bounds.(ai) in
      Alcotest.test_case
        (Printf.sprintf
           "%s %s recording: at most %.0f minor words per step above its run"
           app.Ddet_apps.App.name what bound)
        `Quick (fun () ->
          let p = Ddet.Session.prepare ?config model app in
          ignore (Ddet.Session.record p ~seed:1);
          let steps = ref 0 and above = ref 0. in
          for seed = 1 to 8 do
            let w0 = Gc.minor_words () in
            let r = Ddet_apps.App.production_run app ~seed in
            let w1 = Gc.minor_words () in
            ignore (Ddet.Session.record p ~seed);
            let w2 = Gc.minor_words () in
            above := !above +. (w2 -. w1) -. (w1 -. w0);
            steps := !steps + r.Interp.steps
          done;
          let per_step = !above /. float_of_int !steps in
          if per_step > bound then
            Alcotest.failf "%.1f minor words per step above the run over %d steps"
              per_step !steps))
    [ 0; 1; 2 ]

(* The RCSE recording here is the combined selector's: the code-based
   and data-based selectors and the race trigger, each event through all
   three. What is left above the run is the log's entries, the race
   detector's reports and per-location state, and each selector's memo
   tables, made once per recording; the selectors allocate nothing per
   event. Each bound sits between the name-keyed selectors' figure
   (miniht 20.7, cloudstore 14.3, msg_server 21.9) and the memo's (8.5,
   4.4, 13.6). *)
let rcse_alloc_cases =
  recording_alloc_cases "rcse"
    (Ddet.Model.Rcse Ddet.Model.Combined)
    [| 14.; 9.; 17. |]

(* The perfect recording under a 1.3x overhead budget: the governor's
   gate writes each entry it admits straight into the recording and
   each transition's [Govern] entry at its step, and counts a drop on a
   counter handle resolved once. Each bound sits between the figure when
   the gate returned a list per entry, queued its transitions and looked
   its drop counter up by name (miniht 15.7, cloudstore 14.4, msg_server
   15.8) and the direct write's (4.9, 4.1, 5.8). *)
let governed_alloc_cases =
  recording_alloc_cases "governed perfect"
    ~config:{ Ddet.Config.default with Ddet.Config.overhead_budget = Some 1.3 }
    Ddet.Model.Perfect [| 10.; 9.; 11. |]

(* The sync oracle against the string-keyed one it replaced
   ([Ref_sync]): both are built from the same log and seed and consulted
   in lock step, each on every hook call and every event, inside one run
   on the library interpreter. The run follows the library oracle's
   answers; the first hook or event where the two differ is the
   mismatch. The run carries the abort [Replayer.sync_det] attaches, so
   it ends where a searched attempt ends. *)
let same_decision a b =
  match (a, b) with
  | World.Default, World.Default | World.Force_fail, World.Force_fail -> true
  | World.Force_value x, World.Force_value y -> Value.equal x.Value.v y.Value.v
  | (World.Default | World.Force_fail | World.Force_value _), _ -> false

let sync_lockstep labeled ~seed log =
  let lib = Oracle.sync ~seed log and reference = Ref_sync.sync ~seed log in
  let lw = lib.Oracle.world and rw = reference.Oracle.world in
  let events = ref 0 and mismatch = ref None in
  let differ what =
    if !mismatch = None then
      mismatch := Some (Printf.sprintf "%s (after %d events)" what !events)
  in
  let world =
    {
      lw with
      World.pick_thread =
        (fun ~step cands n ->
          let a = lw.World.pick_thread ~step cands n in
          let b = rw.World.pick_thread ~step cands n in
          if a <> b then differ (Printf.sprintf "step %d: picks %d and %d" step a b);
          a);
      pick_input =
        (fun ~step ~tid ~chan ~domain ->
          let a = lw.World.pick_input ~step ~tid ~chan ~domain in
          let b = rw.World.pick_input ~step ~tid ~chan ~domain in
          if not (Value.equal a b) then
            differ (Printf.sprintf "step %d: inputs on %s differ" step chan);
          a);
      on_try_recv =
        (fun ~step ~tid ~sid ~chan ->
          let a = lw.World.on_try_recv ~step ~tid ~sid ~chan in
          let b = rw.World.on_try_recv ~step ~tid ~sid ~chan in
          if not (same_decision a b) then
            differ (Printf.sprintf "step %d: poll answers on %s differ" step chan);
          a);
    }
  in
  let verdicts (e : Event.t) =
    incr events;
    let a = lib.Oracle.abort e and b = reference.Oracle.abort e in
    if a <> b then differ (Printf.sprintf "step %d: abort verdicts differ" e.Event.step);
    a
  in
  let r =
    Interp.run ~max_steps:oracle_max_steps
      ~abort:(Constraints.both verdicts (Constraints.output_prefix_abort log ()))
      labeled world
  in
  if lib.Oracle.violated () <> reference.Oracle.violated () then
    differ "final violated flags differ";
  (r, !events, !mismatch)

let sync_log ai seed =
  snd (Ddet.Session.record (Ddet.Session.prepare Ddet.Model.Sync parity_apps.(ai)) ~seed)

let sync_reference_cases =
  List.init (Array.length parity_apps) (fun ai ->
      let app = parity_apps.(ai) in
      Alcotest.test_case
        (Printf.sprintf "%s, seeds 1-8, attempts 1-3" app.Ddet_apps.App.name)
        `Quick (fun () ->
          for seed = 1 to 8 do
            let log = sync_log ai seed in
            for attempt = 1 to 3 do
              let _, events, mismatch =
                sync_lockstep app.Ddet_apps.App.labeled ~seed:(1 + attempt) log
              in
              let what = Printf.sprintf "seed %d, attempt %d" seed attempt in
              Alcotest.(check (option string)) what None mismatch;
              if events = 0 then Alcotest.failf "%s: no event reached the oracles" what
            done
          done))
  @ [
      Alcotest.test_case "a channel the log omits aborts both at one event"
        `Quick (fun () ->
          let ai = 0 in
          let log = sync_log ai 1 in
          let chan =
            match
              List.find_map
                (function _, _, Log.Op_send c -> Some c | _ -> None)
                (Log.sync_entries log)
            with
            | Some c -> c
            | None -> Alcotest.fail "the recording has no send"
          in
          let log =
            {
              log with
              Log.entries =
                List.filter
                  (function
                    | Log.Sync { op = Log.Op_send c | Log.Op_recv c; _ } ->
                      not (String.equal c chan)
                    | _ -> true)
                  log.Log.entries;
            }
          in
          let r, _, mismatch =
            sync_lockstep parity_apps.(ai).Ddet_apps.App.labeled ~seed:2 log
          in
          Alcotest.(check (option string)) "same answers throughout" None mismatch;
          Alcotest.(check string) "status" "aborted: sync-order-divergence"
            (Interp.status_to_string r.Interp.status));
    ]

(* ------------------------------------------------------------------ *)
(* strict RCSE against the oracle that ran doomed attempts to the end

   [Ref_rcse] is strict RCSE before it declared divergence where the log
   can no longer be followed. Each attempt of the pinned replay budget
   (8 attempts of at most 20,000 steps, from base seed 1) runs once under
   each oracle, judged as [Replayer.rcse] judges it: the spec, then
   [Constraints.failure_reproduced]. Whenever the reference accepts attempt n, the library
   accepts it with the same steps and trace; an attempt the reference
   rejects, the library rejects in no more steps. *)

let rcse_attempts = 8

let trace_crc (r : Interp.result) =
  Log_io.crc_hex (Format.asprintf "%a" Trace.pp r.Interp.trace)

(* [None] when attempts 1-8 of [log]'s strict replay obey the law, else
   the first that does not *)
let rcse_law labeled ~spec log =
  let run world abort =
    Spec.apply spec (Interp.run ~max_steps:oracle_max_steps ~abort labeled world)
  in
  let accepted = Constraints.failure_reproduced log in
  let rec attempt n =
    if n > rcse_attempts then None
    else
      let seed = 1 + n in
      let lib = Oracle.rcse ~strict:true ~seed log
      and reference = Ref_rcse.rcse ~strict:true ~seed log in
      let a = run lib.Oracle.world lib.Oracle.abort
      and b = run reference.Ref_rcse.world reference.Ref_rcse.abort in
      let broken what =
        Some
          (Printf.sprintf "attempt %d: %s (library %d steps, %s; reference %d steps, %s)"
             n what a.Interp.steps
             (Interp.status_to_string a.Interp.status)
             b.Interp.steps
             (Interp.status_to_string b.Interp.status))
      in
      if accepted b then
        if not (accepted a) then broken "the reference accepts, the library rejects"
        else if a.Interp.steps <> b.Interp.steps || trace_crc a <> trace_crc b then
          broken "both accept, with different runs"
        else attempt (n + 1)
      else if accepted a then broken "the reference rejects, the library accepts"
      else if a.Interp.steps > b.Interp.steps then
        broken "both reject, the library in more steps"
      else attempt (n + 1)
  in
  attempt 1

(* seeds 1-16 hold cloudstore's three pinned failures (9, 14, 16) *)
let rcse_law_seeds = List.init 16 (fun k -> k + 1) @ [ 100_006; 110_064 ]

let rcse_reference_cases =
  List.map
    (fun (app : Ddet_apps.App.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s, seeds 1-16, 100006 and 110064" app.Ddet_apps.App.name)
        `Quick (fun () ->
          let prepared =
            Ddet.Session.prepare (Ddet.Model.Rcse Ddet.Model.Code_based) app
          in
          List.iter
            (fun seed ->
              let _, log = Ddet.Session.record prepared ~seed in
              Alcotest.(check (option string))
                (Printf.sprintf "seed %d" seed)
                None
                (rcse_law app.Ddet_apps.App.labeled ~spec:app.Ddet_apps.App.spec log))
            rcse_law_seeds))
    [ parity_apps.(0); parity_apps.(1); parity_apps.(2) ]

let prop_rcse_reference_proggen =
  QCheck2.Test.make ~name:"strict RCSE against the reference on generated programs"
    ~count:60 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let map =
        Ddet_analysis.Plane.of_assoc
          (List.mapi
             (fun k (f : Ast.func) ->
               ( f.Ast.fname,
                 if k mod 2 = 0 then Ddet_analysis.Plane.Control
                 else Ddet_analysis.Plane.Data ))
             labeled.Label.prog.Ast.funcs)
      in
      let _, log =
        record_run (Recorder.rcse (Ddet_analysis.Plane.selector map)) labeled wseed
      in
      match rcse_law labeled ~spec:Spec.accept_all log with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* ------------------------------------------------------------------ *)
(* root-cause verdicts against the predicates they replaced

   Every cause of every parity app's catalog is evaluated on production
   runs (seeds 1-400: 2,000 runs, on which each cause holds at least
   once) and on the perfect and value replays of the first three failing
   ones, by the library and by [Ref_causes]; each cause's [holds] and the
   catalog's [primary] must agree on every run. *)

module Rc = Ddet_metrics.Root_cause

let check_verdicts what (c : Rc.catalog) (r : Interp.result) =
  let reference = Ref_causes.catalog c in
  List.iter2
    (fun (cause : Rc.t) (ref_cause : Rc.t) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %s holds" what cause.Rc.id)
        (ref_cause.Rc.holds r) (cause.Rc.holds r))
    c.Rc.causes reference.Rc.causes;
  let id = Option.map (fun (cause : Rc.t) -> cause.Rc.id) in
  Alcotest.(check (option string))
    (what ^ ": primary")
    (id (Ref_causes.primary reference r))
    (id (Rc.primary c r))

let verdict_cases =
  List.init (Array.length parity_apps) (fun ai ->
      let app = parity_apps.(ai) in
      let name = app.Ddet_apps.App.name in
      let catalog = app.Ddet_apps.App.catalog in
      Alcotest.test_case
        (Printf.sprintf "%s, seeds 1-400 and three failing seeds' replays" name)
        `Quick (fun () ->
          let failing = ref [] in
          for seed = 1 to 400 do
            let r = Ddet_apps.App.production_run app ~seed in
            check_verdicts (Printf.sprintf "seed %d" seed) catalog r;
            if r.Interp.failure <> None && List.length !failing < 3 then
              failing := seed :: !failing
          done;
          List.iter
            (fun model ->
              let prepared = Ddet.Session.prepare model app in
              List.iter
                (fun seed ->
                  let _, log = Ddet.Session.record prepared ~seed in
                  let o = Ddet.Session.replay prepared log in
                  let what =
                    Printf.sprintf "%s replay of seed %d" (Ddet.Model.name model) seed
                  in
                  match (o.Replayer.result, o.Replayer.partial) with
                  | Some r, _ | None, Some { Search.best = r; _ } ->
                    check_verdicts what catalog r
                  | None, None -> Alcotest.failf "%s: no run" what)
                (List.rev !failing))
            [ Ddet.Model.Perfect; Ddet.Model.Value ]))

(* ------------------------------------------------------------------ *)
(* RCSE selectors against the name-keyed ones they replaced

   The library's selectors find what they know about an event's
   function, region or channel through a per-site memo; [Ref_select]
   holds the name-keyed versions they replaced. Both are fed the same
   event stream: the code-based, data-based, sticky and windowed trigger
   selectors and their [any] must give the same level at every event,
   the race detectors the same reports in the same order, and two
   counting triggers behind the race trigger must be asked on the same
   events (a trigger is skipped where an earlier one fired). *)

open Ddet_analysis

let selector_lockstep ~map ~inv (events : Event.t list) =
  let cfg = Race_detector.default_config in
  let counting seen =
    Trigger.manual ~name:"counting" (fun (e : Event.t) ->
        seen := e.Event.step :: !seen;
        e.Event.step mod 7 = 0)
  in
  let lib_rd = List.init 3 (fun _ -> Race_detector.create cfg) in
  let ref_rd = List.init 3 (fun _ -> Ref_select.race_detector cfg) in
  let lib_seen = [ ref []; ref [] ] and ref_seen = [ ref []; ref [] ] in
  let lib =
    match lib_rd with
    | [ a; b; c ] ->
      [
        ("code-based", Plane.selector map);
        ("data-based", Invariants.selector inv);
        ("sticky trigger", Trigger.selector ~sticky:true [ Trigger.of_race_detector a ]);
        ( "windowed triggers",
          Trigger.selector ~window:9
            (Trigger.of_race_detector b :: List.map counting lib_seen) );
        ( "any",
          Fidelity_level.any
            [
              Plane.selector map;
              Invariants.selector inv;
              Trigger.selector ~sticky:true [ Trigger.of_race_detector c ];
            ] );
      ]
    | _ -> assert false
  in
  let reference =
    match ref_rd with
    | [ a; b; c ] ->
      [
        Ref_select.code_based map;
        Ref_select.data_based inv;
        Ref_select.trigger_selector ~sticky:true [ Ref_select.race_trigger a ];
        Ref_select.trigger_selector ~window:9
          (Ref_select.race_trigger b :: List.map counting ref_seen);
        Ref_select.any
          [
            Ref_select.code_based map;
            Ref_select.data_based inv;
            Ref_select.trigger_selector ~sticky:true [ Ref_select.race_trigger c ];
          ];
      ]
    | _ -> assert false
  in
  let mismatch = ref None in
  List.iteri
    (fun k (e : Event.t) ->
      List.iter2
        (fun (name, (s : Fidelity_level.selector)) (r : Fidelity_level.selector) ->
          let a = s.Fidelity_level.level e and b = r.Fidelity_level.level e in
          if !mismatch = None && not (Fidelity_level.equal a b) then
            mismatch :=
              Some
                (Format.asprintf "%s: event %d (%a): %s against %s" name k Event.pp e
                   (Fidelity_level.to_string a) (Fidelity_level.to_string b)))
        lib reference)
    events;
  List.iteri
    (fun k (a, b) ->
      if !mismatch = None && Race_detector.reports a <> Ref_select.reports b then
        mismatch := Some (Printf.sprintf "race detector %d: reports differ" k))
    (List.combine lib_rd ref_rd);
  List.iteri
    (fun k (a, b) ->
      if !mismatch = None && !a <> !b then
        mismatch := Some (Printf.sprintf "counting trigger %d: events seen differ" k))
    (List.combine lib_seen ref_seen);
  !mismatch

let selector_app_cases =
  List.init (Array.length parity_apps) (fun ai ->
      let app = parity_apps.(ai) in
      Alcotest.test_case
        (Printf.sprintf "%s, seeds 1-8" app.Ddet_apps.App.name)
        `Quick (fun () ->
          let p = Ddet.Session.prepare (Ddet.Model.Rcse Ddet.Model.Combined) app in
          let map = Option.get p.Ddet.Session.plane_map in
          let inv = Option.get p.Ddet.Session.invariants in
          for seed = 1 to 8 do
            let r = Ddet_apps.App.production_run app ~seed in
            Alcotest.(check (option string))
              (Printf.sprintf "seed %d" seed) None
              (selector_lockstep ~map ~inv (Trace.events r.Interp.trace))
          done))

(* a generated program's functions alternate between the planes, so both
   answers occur; its invariants come from three other seeds' runs *)
let prop_selectors_proggen =
  QCheck2.Test.make ~name:"selectors match the name-keyed ones on generated programs"
    ~count:40 ~print:print_scenario scenario_gen (fun (pseed, wseed) ->
      let labeled = program_of pseed in
      let map =
        Plane.of_assoc
          (List.mapi
             (fun k (f : Ast.func) ->
               (f.Ast.fname, if k mod 2 = 0 then Plane.Data else Plane.Control))
             labeled.Label.prog.Ast.funcs)
      in
      let inv =
        Invariants.infer
          (List.map
             (fun seed -> Interp.run labeled (World.random ~seed))
             [ wseed + 1; wseed + 2; wseed + 3 ])
      in
      let r = Interp.run labeled (World.random ~seed:wseed) in
      match selector_lockstep ~map ~inv (Trace.events r.Interp.trace) with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

(* Hand-built streams: a few sids, some 256 apart (they share a memo
   slot), each seen under several names, given either as one shared
   string or as a fresh copy, with scalar and array accesses, inputs and
   steps from three threads. *)
let hand_built_events seed =
  let rng = Prng.create seed in
  let name pool =
    let s = List.nth pool (Prng.int rng (List.length pool)) in
    if Prng.bool rng then s else Bytes.to_string (Bytes.of_string s)
  in
  let value () = Value.untainted (Value.int (Prng.int rng 12 - 2)) in
  List.init 400 (fun step ->
      let sid = List.nth [ 1; 2; 3; 257; 259; 511 ] (Prng.int rng 6) in
      let index () = if Prng.bool rng then None else Some (Prng.int rng 4) in
      let access () = { Event.region = name [ "x"; "y"; "n" ]; index = index (); value = value () } in
      let kind =
        match Prng.int rng 5 with
        | 0 -> Event.Step
        | 1 -> Event.Read (access ())
        | 2 -> Event.Write (access ())
        | 3 -> Event.In { chan = name [ "n"; "m" ]; value = value () }
        | _ -> Event.Write { (access ()) with index = None }
      in
      { Event.step; tid = Prng.int rng 3; sid; fname = name [ "a"; "b"; "c" ]; kind })

let prop_selectors_hand_built =
  QCheck2.Test.make ~name:"selectors match the name-keyed ones on hand-built events"
    ~count:60 ~print:string_of_int QCheck2.Gen.(int_range 1 100_000) (fun seed ->
      let map = Plane.of_assoc [ ("a", Plane.Data); ("b", Plane.Control); ("c", Plane.Data) ] in
      let inv =
        {
          Invariants.scalar_bounds = [ ("x", { Invariants.lo = 0; hi = 8 }) ];
          input_bounds = [ ("n", { Invariants.lo = -1; hi = 9 }); ("m", { Invariants.lo = 0; hi = 6 }) ];
        }
      in
      match selector_lockstep ~map ~inv (hand_built_events seed) with
      | None -> true
      | Some m -> QCheck2.Test.fail_report m)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "props"
    [
      ( "roundtrip",
        List.map to_alcotest
          [
            prop_perfect_roundtrip;
            prop_value_thread_projection;
            prop_value_outputs;
            prop_rcse_full_fidelity_roundtrip;
            prop_recording_deterministic;
            prop_output_constraint_reflexive;
            prop_log_io_roundtrip;
            prop_log_io_arbitrary_payloads;
            prop_salvage_single_line_corruption;
          ] );
      ("node-faults", List.map to_alcotest [ prop_node_faults_are_sugar ]);
      ( "cost-model",
        List.map to_alcotest
          [ prop_cost_nonnegative; prop_overhead_lower_bound; prop_cost_additive ] );
      ( "foundations",
        List.map to_alcotest
          [
            prop_prng_range;
            prop_prng_deterministic;
            prop_taint_union;
            prop_scalar_reconstruction;
          ] );
      ("vec", List.map to_alcotest [ prop_vec_models_list ]);
      ( "alloc",
        alloc_cases @ rcse_alloc_cases @ governed_alloc_cases
        @ [ desched_alloc_case ] );
      ("crash-tolerance", List.map to_alcotest [ prop_resume_parity ]);
      ( "parallel",
        List.map to_alcotest
          [ prop_parallel_parity; prop_parallel_poison_parity ] );
      ( "interpreter",
        List.map to_alcotest
          [
            prop_production_parity;
            prop_recording_parity;
            prop_perfect_replay_parity;
          ] );
      ("oracle-worlds", List.map to_alcotest [ prop_oracle_parity ]);
      ("candidates", List.map to_alcotest [ prop_candidate_snapshots ]);
      ("sync-reference", sync_reference_cases);
      ( "rcse-reference",
        rcse_reference_cases @ [ to_alcotest prop_rcse_reference_proggen ] );
      ("fault-pins", fault_pin_cases);
      ("verdicts", verdict_cases);
      ( "selectors",
        selector_app_cases
        @ List.map to_alcotest [ prop_selectors_proggen; prop_selectors_hand_built ] );
    ]
