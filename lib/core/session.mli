(** The record / replay / assess pipeline — the library's headline API.

    A debugging session follows the paper's lifecycle:

    + {!prepare} a determinism model for an application — for RCSE models
      this trains the analyses on passing runs (taint-profile plane
      classification, invariant inference) exactly as §3.1 prescribes
      ("before the software is released");
    + {!record} a production run (a seeded random world) under the model's
      recorder, judging it against the app's I/O specification;
    + {!replay} the log — deterministic re-execution or inference search,
      depending on the model;
    + {!assess} the outcome: recording overhead, debugging fidelity,
      efficiency and utility (§3.2).

    {!experiment} chains all four. *)

open Mvm
open Ddet_record
open Ddet_analysis
open Ddet_apps

type prepared = {
  app : App.t;
  model : Model.t;
  config : Config.t;
  make_recorder : ?govern:Governor.t -> unit -> Recorder.t;
      (** fresh recorder per recording: selectors and triggers are
          stateful. With [govern], the recorder's entries route through
          that governor's admission gate (see {!Ddet_record.Governor}). *)
  plane_map : Plane.map option;
      (** the trained classification, for RCSE code-based/combined models *)
  invariants : Invariants.t option;
      (** the trained invariants, for RCSE data-based/combined models *)
  static : Ddet_static.Static_report.t option Lazy.t;
      (** the app's cross-node static report, analyzed on first use; read
          it through {!static_report} *)
}

(** [prepare ?config model app] trains whatever the model needs. *)
val prepare : ?config:Config.t -> Model.t -> App.t -> prepared

(** [record prepared ~seed] executes one production run under the model's
    recorder and returns the judged run plus its log. With [faults] the
    run executes under that adversarial fault plan — node-granular faults
    are lowered against the app's node map first — and the (lowered) plan
    is stamped into the log so replay can re-create the environment.
    [monitor] attaches one extra event observer to the recording run. *)
val record :
  ?faults:Fault.plan ->
  ?monitor:(Event.t -> unit) ->
  prepared ->
  seed:int ->
  Interp.result * Log.t

(** [record_dist prepared ~seed] is {!record} with a {!Ddet_record.Causal}
    monitor riding along: the returned causality is what
    {!Ddet_record.Sharded_log.save_via} needs to shard the log per node.

    @raise Invalid_argument when the app has no node map. *)
val record_dist :
  ?faults:Fault.plan ->
  prepared ->
  seed:int ->
  Interp.result * Log.t * Ddet_record.Causal.t

(** [replay ?budget prepared log] reconstructs an execution per the model's
    replay contract. [budget] overrides the config's inference budget (the
    ensemble assessment varies its base seed; a [deadline_s] in it bounds
    every model's search, including the value model's, which otherwise
    runs {!Ddet_replay.Replayer.value_budget}). The
    config's [jobs] lets random-restart replays run on up to that many
    domains (see {!Ddet_replay.Par_search.pool}) — same outcome at any
    [jobs]; input enumeration always runs in order, and a recorded run
    shorter than the pool's min-work threshold keeps the search in order
    too. [checkpoint] persists the search frontier so
    a killed replay can be [resume]d and provably reach the same first-hit
    outcome; see {!Ddet_replay.Checkpoint}. *)
val replay :
  ?budget:Ddet_replay.Search.budget ->
  ?checkpoint:Ddet_replay.Checkpoint.sink ->
  ?resume:Ddet_replay.Checkpoint.t ->
  prepared ->
  Log.t ->
  Ddet_replay.Replayer.outcome

(** [replay_stitched prepared stitch] replays a stitched shard merge
    ({!Ddet_replay.Stitch}). Complete evidence is the original log
    reassembled exactly, so the configured model's own {!replay} runs;
    partial evidence degrades to {!Ddet_replay.Replayer.stitched}
    search — surviving schedules enforced, lost nodes searched.

    [static_steer] (default false) runs the cross-node static analysis
    on the app's node map and hands the resulting hints to the partial
    oracle: the search only perturbs lost-node decision points that can
    statically reach a survivor, and pins inputs of lost threads with no
    such path. A no-op for apps without a node map or when the stitch is
    complete. *)
val replay_stitched :
  ?budget:Ddet_replay.Search.budget ->
  ?checkpoint:Ddet_replay.Checkpoint.sink ->
  ?resume:Ddet_replay.Checkpoint.t ->
  ?static_steer:bool ->
  prepared ->
  Ddet_replay.Stitch.t ->
  Ddet_replay.Replayer.outcome

(** The app's distributed static report ([None] without a node map) —
    race candidates tightened by placement, communication lint, per-node
    views. See {!Ddet_static.Static_report}. Analyzed on the first call
    for [prepared]; every later call returns the same report. *)
val static_report : prepared -> Ddet_static.Static_report.t option

(** Shard write priority from the static report (empty without a node
    map) — pass to {!Ddet_record.Sharded_log.save_via} so the most
    diagnostic shards are persisted first. *)
val shard_priority : prepared -> string list

(** [assess prepared ~original ~log outcome] computes the §3.2 metrics.
    [salvaged] marks a log recovered from a damaged file, capping a full
    reproduction's DF at the 1/n floor; [evidence] is per-node shard
    evidence and populates the per-node DF report — see
    {!Ddet_metrics.Utility.assess}. *)
val assess :
  ?salvaged:bool ->
  ?evidence:(string * Ddet_record.Sharded_log.shard_status) list ->
  prepared ->
  original:Interp.result ->
  log:Log.t ->
  Ddet_replay.Replayer.outcome ->
  Ddet_metrics.Utility.assessment

(** [experiment ?config ?faults model app ~seed] = prepare, record,
    replay, assess — optionally under an injected fault plan. *)
val experiment :
  ?config:Config.t ->
  ?faults:Fault.plan ->
  Model.t ->
  App.t ->
  seed:int ->
  Ddet_metrics.Utility.assessment

(** [experiment_ensemble ?config ?replays model app ~seed] records once and
    replays [replays] times (default 5) with independent search seeds,
    averaging DF, DE and DU. Debug determinism demands *consistently*
    reproducing the failure and root cause (§3), and a single search can
    get lucky; the ensemble estimates the expectation. The reported replay
    cause is the modal one across the ensemble. *)
val experiment_ensemble :
  ?config:Config.t ->
  ?faults:Fault.plan ->
  ?replays:int ->
  Model.t ->
  App.t ->
  seed:int ->
  Ddet_metrics.Utility.assessment

(** [training_runs app] is the passing runs used to train analyses: the
    first five, scanning seeds upward from 1000. Exposed for examples and
    tests. *)
val training_runs : App.t -> Interp.result list
