open Mvm
open Ddet_record
open Ddet_replay
open Ddet_analysis
open Ddet_apps

type prepared = {
  app : App.t;
  model : Model.t;
  config : Config.t;
  make_recorder : unit -> Recorder.t;
  plane_map : Plane.map option;
  invariants : Invariants.t option;
  static : Ddet_static.Static_report.t option Lazy.t;
}

(* Training models pre-release testing: only passing runs teach the
   analyses what "normal" looks like — five of them, scanned upward from
   seed 1000, well away from the seeds experiments fail on. *)
let training_runs (app : App.t) =
  let first = 1000 in
  let rec scan seed acc n =
    if n = 0 || seed > first + 300 then List.rev acc
    else
      let r = App.production_run app ~seed in
      match r.Interp.failure with
      | None -> scan (seed + 1) (r :: acc) (n - 1)
      | Some _ -> scan (seed + 1) acc n
  in
  scan first [] 5

let code_selector plane_map = Plane.selector plane_map

let data_selector invariants = Invariants.selector invariants

let trigger_selector () =
  Trigger.selector ~sticky:true
    [
      Trigger.of_race_detector
        (Race_detector.create Race_detector.default_config);
    ]

let prepare ?(config = Config.default) model (app : App.t) =
  let trained = lazy (training_runs app) in
  let plane_map =
    lazy
      (Plane.classify
         (Taint_profile.of_results (Lazy.force trained))
         ~threshold:Plane.default_threshold)
  in
  let invariants = lazy (Invariants.infer (Lazy.force trained)) in
  let fixed recorder = ((fun () -> recorder), false, false) in
  let flight = config.Config.flight_ring in
  let make_recorder, plane_used, inv_used =
    match model with
    | Model.Perfect -> fixed Recorder.perfect
    | Model.Value -> fixed Recorder.value
    | Model.Sync -> fixed Recorder.sync
    | Model.Output -> fixed Recorder.output
    | Model.Failure_det -> fixed Recorder.failure
    | Model.Rcse Model.Code_based ->
      (* static selection: no flight ring needed *)
      ( (fun () -> Recorder.rcse (code_selector (Lazy.force plane_map))),
        true,
        false )
    | Model.Rcse Model.Data_based ->
      ( (fun () ->
          Recorder.rcse ?flight (data_selector (Lazy.force invariants))),
        false,
        true )
    | Model.Rcse Model.Trigger_based ->
      ((fun () -> Recorder.rcse ?flight (trigger_selector ())), false, false)
    | Model.Rcse Model.Combined ->
      ( (fun () ->
          Recorder.rcse ?flight
            (Fidelity_level.any
               [
                 code_selector (Lazy.force plane_map);
                 data_selector (Lazy.force invariants);
                 trigger_selector ();
               ])),
        true,
        true )
  in
  {
    app;
    model;
    config;
    make_recorder;
    plane_map = (if plane_used then Some (Lazy.force plane_map) else None);
    invariants = (if inv_used then Some (Lazy.force invariants) else None);
    static =
      lazy
        (Option.map
           (fun map -> Ddet_static.Static_report.analyze ~nodes:map app.App.labeled)
           app.App.nodes);
  }

let record ?(faults = Fault.none) ?monitor prepared ~seed =
  Ddet_obs.Tracer.span_ "session.record"
    ~args:[ ("seed", Ddet_obs.Tracer.Count seed) ]
  @@ fun () ->
  (* node-granular faults desugar against the app's topology before any
     world exists; the *lowered* plan is also what ships with the log,
     so replay re-creates the environment with no node knowledge *)
  let faults = App.lower_faults prepared.app faults in
  let world = Fault.inject faults (World.random ~seed) in
  let govern =
    Option.map
      (fun budget ->
        Governor.create ~cost_model:prepared.config.Config.cost_model ~budget ())
      prepared.config.Config.overhead_budget
  in
  let original, log =
    Recorder.record ?govern ?monitor (prepared.make_recorder ())
      prepared.app.App.labeled ~spec:prepared.app.App.spec ~world
  in
  (* the plan ships with the log: replay must re-create the adversarial
     environment the recording ran under *)
  if Fault.is_empty faults then (original, log)
  else (original, { log with Log.faults = Some faults })

(* Distributed recording: same run, but a causal monitor rides along so
   the log can be sharded per node with a cross-node manifest. *)
let record_dist ?faults prepared ~seed =
  let map =
    match prepared.app.App.nodes with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Session.record_dist: app %S has no node map"
           prepared.app.App.name)
  in
  let main_fname = prepared.app.App.labeled.Label.prog.Ast.main in
  Ddet_obs.Tracer.span_ "session.record_dist" @@ fun () ->
  let on_event, finish = Causal.monitor ~map ~main_fname () in
  let original, log = record ?faults ~monitor:on_event prepared ~seed in
  (original, log, finish ())

let replay ?budget ?checkpoint ?resume prepared log =
  Ddet_obs.Tracer.span_ "session.replay"
    ~args:
      [
        ("governed", Ddet_obs.Tracer.Count (if Log.governed log then 1 else 0));
      ]
  @@ fun () ->
  let labeled = prepared.app.App.labeled in
  let spec = prepared.app.App.spec in
  let budget = Option.value ~default:prepared.config.Config.budget budget in
  let jobs = prepared.config.Config.jobs in
  (* A governed log has windows where the governor dropped entries by
     design; the deterministic oracles would misalign against the gaps,
     so any model's replay degrades to failure-directed search over the
     missing windows. *)
  if Log.governed log then
    Replayer.governed ~budget ~jobs ?checkpoint ?resume labeled ~spec log
  else
  match prepared.model with
  | Model.Perfect -> Replayer.perfect labeled ~spec log
  | Model.Value ->
    (* the value budget inherits the caller's deadline: an explicit
       wall-clock allowance should bound every model's search *)
    let budget =
      { Replayer.value_budget with
        Ddet_replay.Search.deadline_s = budget.Ddet_replay.Search.deadline_s
      }
    in
    Replayer.value_det ~budget ~jobs ?checkpoint ?resume labeled ~spec log
  | Model.Sync ->
    Replayer.sync_det ~budget ~jobs ?checkpoint ?resume labeled ~spec log
  | Model.Output ->
    Replayer.output_det ~budget ~jobs ?checkpoint ?resume labeled ~spec log
  | Model.Failure_det ->
    Replayer.failure_det ~budget ~jobs ?checkpoint ?resume labeled ~spec log
  | Model.Rcse mode ->
    (* code-based selection records statically-chosen sites, so an
       out-of-order recorded site is real divergence; windowed selections
       revisit their sites outside the window legitimately *)
    let strict = match mode with Model.Code_based -> true | _ -> false in
    Replayer.rcse ~budget ~strict ~jobs ?checkpoint ?resume labeled ~spec log

(* The app's distributed static report (None for single-node apps),
   analyzed on first use and shared by every later call: it depends only
   on the app. Forced on the caller's thread, never by a pool worker. *)
let static_report prepared = Lazy.force prepared.static

let shard_priority prepared =
  match static_report prepared with
  | None -> []
  | Some report -> Ddet_static.Static_report.shard_priority report

(* Replay over a stitched shard merge. Complete evidence is the original
   log reassembled exactly — the configured model's own replay applies.
   Anything less degrades to partial-evidence search: surviving schedules
   enforced, lost nodes searched (statically bounded when asked). *)
let replay_stitched ?budget ?checkpoint ?resume ?(static_steer = false)
    prepared (st : Stitch.t) =
  if st.Stitch.complete then replay ?budget ?checkpoint ?resume prepared st.Stitch.log
  else
    Ddet_obs.Tracer.span_ "session.replay_stitched"
      ~args:
        [ ("lost", Ddet_obs.Tracer.Count (List.length st.Stitch.lost)) ]
    @@ fun () ->
    let budget = Option.value ~default:prepared.config.Config.budget budget in
    let steer =
      if static_steer then
        Option.map
          (fun r -> Ddet_static.Static_report.steer r ~lost:st.Stitch.lost)
          (static_report prepared)
      else None
    in
    Replayer.stitched ~budget ~jobs:prepared.config.Config.jobs ?checkpoint
      ?resume ?steer prepared.app.App.labeled ~spec:prepared.app.App.spec st

let assess ?salvaged ?evidence prepared ~original ~log outcome =
  Ddet_obs.Tracer.span_ "session.assess" @@ fun () ->
  let a =
    Ddet_metrics.Utility.assess ~cost_model:prepared.config.Config.cost_model
      ?salvaged ?evidence ~catalog:prepared.app.App.catalog ~original ~log
      outcome
  in
  (* the replayer knows only its mechanism; name the configured model so
     RCSE variants stay distinguishable in reports *)
  { a with Ddet_metrics.Utility.model = Model.name prepared.model }

let experiment_ensemble ?config ?faults ?(replays = 5) model app ~seed =
  let prepared = prepare ?config model app in
  let original, log = record ?faults prepared ~seed in
  let base = prepared.config.Config.budget in
  let assessments =
    List.init (max 1 replays) (fun k ->
        let budget = { base with Search.base_seed = base.Search.base_seed + (7919 * k) } in
        assess prepared ~original ~log (replay ~budget prepared log))
  in
  let n = float_of_int (List.length assessments) in
  let mean f = List.fold_left (fun acc a -> acc +. f a) 0. assessments /. n in
  let modal_cause =
    let tally = Hashtbl.create 8 in
    List.iter
      (fun (a : Ddet_metrics.Utility.assessment) ->
        let key = Option.value ~default:"-" a.replay_cause in
        Hashtbl.replace tally key
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
      assessments;
    let best =
      Hashtbl.fold
        (fun k v acc ->
          match acc with Some (_, v') when v' >= v -> acc | _ -> Some (k, v))
        tally None
    in
    match best with Some ("-", _) | None -> None | Some (k, _) -> Some k
  in
  match assessments with
  | [] -> assert false
  | first :: _ ->
    {
      first with
      Ddet_metrics.Utility.df = mean (fun a -> a.Ddet_metrics.Utility.df);
      de = mean (fun a -> a.Ddet_metrics.Utility.de);
      du = mean (fun a -> a.Ddet_metrics.Utility.du);
      replay_cause = modal_cause;
      attempts =
        int_of_float (mean (fun a -> float_of_int a.Ddet_metrics.Utility.attempts));
      inference_steps =
        int_of_float
          (mean (fun a -> float_of_int a.Ddet_metrics.Utility.inference_steps));
    }
