(** Session-wide configuration: cost model, inference budgets and
    recording knobs, with the defaults every experiment in EXPERIMENTS.md
    uses. The analyses' fixed settings live beside the analyses
    ({!Ddet_analysis.Plane.default_threshold},
    {!Ddet_analysis.Race_detector.default_config},
    {!Session.training_runs}). *)

open Ddet_record
open Ddet_replay

type t = {
  cost_model : Cost_model.t;
  budget : Search.budget;  (** inference budget for searched replays *)
  flight_ring : int option;
      (** capacity of the flight-recorder ring used by windowed RCSE
          selections (trigger/data/combined); [None] disables it *)
  jobs : int;
      (** worker domains for random-restart replays and seed scans (see
          {!Ddet_replay.Par_search.pool}, whose placement policy is
          fixed); 1 (the default) keeps everything in order. Input
          enumeration and the DFS run in order at any [jobs]. Outcomes
          are identical at any [jobs]; only wall-clock time changes. *)
  overhead_budget : float option;
      (** recording-overhead SLO (e.g. [Some 1.3] for "≤1.3x"): recording
          runs under an {!Ddet_record.Governor} that degrades fidelity
          gracefully to stay within it; [None] (the default) records at
          the model's full fidelity *)
}

val default : t
