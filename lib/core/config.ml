open Ddet_record
open Ddet_replay

type t = {
  cost_model : Cost_model.t;
  plane_threshold : float;
  budget : Search.budget;
  value_budget : Search.budget;
  training_runs : int;
  training_seed_base : int;
  trigger_window : int;
  flight_ring : int option;
  race_config : Ddet_analysis.Race_detector.config;
  jobs : int;
  tuning : Par_search.tuning;
  overhead_budget : float option;
}

let default =
  {
    cost_model = Cost_model.default;
    plane_threshold = 6.0;
    budget = Search.default_budget;
    value_budget = Replayer.value_budget;
    training_runs = 5;
    training_seed_base = 1000;
    trigger_window = 500;
    flight_ring = Some 250;
    race_config = Ddet_analysis.Race_detector.default_config;
    jobs = 1;
    tuning = Par_search.default_tuning;
    overhead_budget = None;
  }
