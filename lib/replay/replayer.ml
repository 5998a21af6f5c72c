open Mvm
open Ddet_record

type outcome = {
  model : string;
  result : Interp.result option;
  partial : Search.partial option;
  attempts : int;
  total_steps : int;
  deadline_hit : bool;
  incidents : Search.incident list;
}

let of_search model (o : Search.outcome) =
  {
    model;
    result = o.Search.result;
    partial = o.Search.partial;
    attempts = o.Search.stats.attempts;
    total_steps = o.Search.stats.total_steps;
    deadline_hit = o.Search.stats.deadline_hit;
    incidents = o.Search.stats.incidents;
  }

(* The CLI's exit-code contract, kept in the library so it can be tested
   without forking the binary:
     0  the failure was reproduced (full-fidelity replay)
     3  budget exhausted, degraded to a partial candidate (DF 1/n)
     4  the log arrived damaged and was salvaged (replay is best-effort,
        whatever its outcome short of success)
     5  nothing to show: deadline or budget ran out with no candidate *)
let exit_ok = 0
let exit_partial = 3
let exit_salvaged = 4
let exit_deadline = 5

let exit_code ?(damaged = false) o =
  match o.result with
  | Some _ -> if damaged then exit_salvaged else exit_ok
  | None ->
    if damaged then exit_salvaged
    else if o.deadline_hit then exit_deadline
    else if o.partial <> None then exit_partial
    else exit_deadline

(* The recorded run may have executed under a fault plan; replay must
   re-create that adversarial environment or the schedule and deliveries
   diverge immediately. The plan ships inside the log, and its decisions
   are pure hashes of (seed, step, ...), so wrapping the replay world in
   the same plan reproduces the same faults at the same steps. Oracles
   that force poll outcomes from the log themselves (value and sync
   determinism) must NOT be wrapped: their forced decisions already embed
   the recorded faults, and injecting on top would corrupt them. *)
let env_world (log : Log.t) w =
  match log.Log.faults with None -> w | Some plan -> Fault.inject plan w

(* Each search attempt re-executes the recorded program, so the recorded
   run's length is the natural per-attempt cost estimate for the
   min-work heuristic (the restarts pool runs in order when an attempt
   is cheaper than spawning domains). A log whose header lost its base
   steps gives no estimate rather than a misleading zero. *)
let est_of (log : Log.t) =
  if log.Log.base_steps > 0 then Some log.Log.base_steps else None

let perfect labeled ~spec log =
  let handle = Oracle.perfect log in
  let world = env_world log handle.Oracle.world in
  let r = Interp.run ~abort:handle.Oracle.abort labeled world in
  let r = Spec.apply spec r in
  let ok = (not (handle.Oracle.violated ())) && Constraints.failure_matches log r in
  {
    model = "perfect";
    result = (if ok then Some r else None);
    partial =
      (if ok then None
       else
         Some
           {
             Search.best = r;
             closeness = Constraints.closeness log r;
             attempt = 1;
           });
    attempts = 1;
    total_steps = r.steps;
    deadline_hit = false;
    incidents = [];
  }

let value_budget =
  {
    Search.max_attempts = 10;
    max_steps_per_attempt = 100_000;
    base_seed = 1;
    deadline_s = None;
  }

(* The one body of every random-restart driver: attempt [attempt] runs
   in the world and streaming abort [make ~attempt ~seed] builds from its
   seed (base seed + attempt), is accepted by [accept log], and a
   rejected run is ranked by its closeness to the recording. The
   recorded run's length is the attempt-cost estimate. *)
let restarts model ~budget ~jobs ?checkpoint ?resume ~accept ~make labeled
    ~spec log =
  Search.random_restarts ~jobs ?est_attempt_steps:(est_of log) ?checkpoint
    ?resume budget
    ~score:(Constraints.closeness log)
    ~make:(fun ~attempt ->
      make ~attempt ~seed:(budget.Search.base_seed + attempt))
    ~spec ~accept:(accept log) labeled
  |> of_search model

let value_det ?(budget = value_budget) ?(jobs = 1) ?checkpoint ?resume labeled
    ~spec log =
  restarts "value" ~budget ~jobs ?checkpoint ?resume labeled ~spec log
    ~accept:Constraints.failure_matches ~make:(fun ~attempt:_ ~seed ->
      let handle = Oracle.value_det ~seed log in
      (handle.Oracle.world, Some handle.Oracle.abort))

(* A sequential program's only nondeterminism is its inputs, so input
   enumeration covers it exhaustively; a program that spawns needs
   schedule search instead. *)
let output_det ?(budget = Search.default_budget) ?(jobs = 1) ?checkpoint
    ?resume labeled ~spec log =
  let spawns =
    Ast.fold_stmts
      (fun acc _ s -> acc || match s.Ast.node with Ast.Spawn _ -> true | _ -> false)
      false labeled.Label.prog
  in
  if not spawns then
    Search.enumerate_inputs ?checkpoint ?resume budget
      ~score:(Constraints.closeness log) ~spec
      ~accept:(Constraints.outputs_match log) labeled
    |> of_search "output"
  else
    restarts "output" ~budget ~jobs ?checkpoint ?resume labeled ~spec log
      ~accept:Constraints.outputs_match ~make:(fun ~attempt:_ ~seed ->
        ( env_world log (World.random ~seed),
          Some (Constraints.output_prefix_abort log) ))

let failure_det ?(budget = Search.default_budget) ?(jobs = 1) ?checkpoint
    ?resume ?priority labeled ~spec log =
  let attempt_world =
    match priority with
    | None -> fun ~seed -> World.random ~seed
    | Some p ->
      let prefer = Search.site_prefer p in
      fun ~seed -> World.prioritized ~seed ~prefer
  in
  restarts "failure" ~budget ~jobs ?checkpoint ?resume labeled ~spec log
    ~accept:Constraints.failure_matches ~make:(fun ~attempt:_ ~seed ->
      (env_world log (attempt_world ~seed), None))

let sync_det ?(budget = Search.default_budget) ?(jobs = 1) ?checkpoint ?resume
    labeled ~spec log =
  restarts "sync" ~budget ~jobs ?checkpoint ?resume labeled ~spec log
    ~accept:Constraints.outputs_match ~make:(fun ~attempt:_ ~seed ->
      let handle = Oracle.sync ~seed log in
      ( handle.Oracle.world,
        Some
          (Constraints.both handle.Oracle.abort
             (Constraints.output_prefix_abort log)) ))

(* An attempt the oracle aborted is rejected whatever the log holds
   ([Constraints.failure_reproduced]).

   Under a tracer, the instant [oracle.rcse_diverged] says where the
   first judged attempt a rule of strict RCSE ended left its log.
   Attempts may run on pool workers, which write no trace: each notes its
   divergence as its abort fires, the lowest attempt wins, and the
   calling thread emits the instant once the search is over. *)
let rcse ?(budget = Search.default_budget) ?(strict = true) ?(jobs = 1)
    ?checkpoint ?resume labeled ~spec log =
  let module T = Ddet_obs.Tracer in
  let traced = T.current () <> None in
  let first = Atomic.make None in
  let rec note attempt (d : Oracle.divergence) =
    match Atomic.get first with
    | Some (a, _) when a <= attempt -> ()
    | cur ->
      if not (Atomic.compare_and_set first cur (Some (attempt, d))) then
        note attempt d
  in
  let o =
    restarts "rcse" ~budget ~jobs ?checkpoint ?resume labeled ~spec log
      ~accept:Constraints.failure_reproduced ~make:(fun ~attempt ~seed ->
        let h = Oracle.rcse ~strict ~seed log in
        let noting e =
          match h.Oracle.abort e with
          | None -> None
          | Some _ as reason ->
            Option.iter (note attempt) (h.Oracle.diverged ());
            reason
        in
        (env_world log h.Oracle.world, Some (if traced then noting else h.Oracle.abort)))
  in
  (match Atomic.get first with
  | Some (a, d) when a <= o.attempts ->
    T.instant_ "oracle.rcse_diverged"
      ~args:
        [
          ("attempt", T.Count a); ("step", T.Count d.Oracle.step);
          ("tid", T.Count d.Oracle.head_tid); ("sid", T.Count d.Oracle.head_sid);
          ("stands_at", T.Count d.Oracle.stands_at);
        ]
  | Some _ | None -> ());
  o

(* A governed log has windows where the governor dialled fidelity down
   and entries are missing by design. The deterministic oracles (value,
   sync) would misalign against those gaps — their forced decisions
   assume a complete stream — so governed logs replay by search: the
   failure-determinism search (random restarts under the recorded fault
   plan, accepted when the original failure reproduces, closeness-scored
   so budget exhaustion still yields the best partial), reported under
   its own name. It searches the whole run, not the degraded windows,
   and no surviving entry steers it: the closeness score reads only the
   failure and the outputs. *)
let governed ?budget ?jobs ?checkpoint ?resume labeled ~spec log =
  { (failure_det ?budget ?jobs ?checkpoint ?resume labeled ~spec log)
    with model = "governed" }

(* Partial-evidence replay over a stitched shard merge. When the stitch
   is complete this is never the right driver (use the model's own); when
   evidence is missing, the merged order and surviving inputs steer each
   attempt through Oracle.partial, the lost nodes' threads and inputs
   are searched by random restarts under the recorded fault plan, and
   acceptance is the recorded failure — reproduced from partial
   evidence. *)
let stitched ?(budget = Search.default_budget) ?(jobs = 1) ?checkpoint ?resume
    ?steer labeled ~spec (st : Stitch.t) =
  let log = st.Stitch.log in
  restarts "stitched" ~budget ~jobs ?checkpoint ?resume labeled ~spec log
    ~accept:Constraints.failure_matches ~make:(fun ~attempt ~seed ->
      (* the first attempt replays the surviving projection unbiased —
         identical to the uninformed search — so steering can only speed
         up later shots, never cost a first-try reproduction *)
      let steer = if attempt <= 2 then None else steer in
      let handle = Oracle.partial ?steer ~seed log in
      (env_world log handle.Oracle.world, Some handle.Oracle.abort))

let pp_outcome ppf o =
  Format.fprintf ppf "%s: %s after %d attempt(s), %d inference steps" o.model
    (match o.result with Some _ -> "replayed" | None -> "NOT replayed")
    o.attempts o.total_steps;
  (match o.result, o.partial with
  | None, Some p ->
    Format.fprintf ppf "; best partial candidate: closeness %.2f (attempt %d)"
      p.Search.closeness p.Search.attempt
  | _ -> ());
  if o.deadline_hit then Format.fprintf ppf "; deadline hit";
  match o.incidents with
  | [] -> ()
  | incs ->
    Format.fprintf ppf "; %d worker incident(s):" (List.length incs);
    List.iter (fun i -> Format.fprintf ppf "@ [%a]" Search.pp_incident i) incs
