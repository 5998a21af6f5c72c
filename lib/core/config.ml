open Ddet_record
open Ddet_replay

type t = {
  cost_model : Cost_model.t;
  budget : Search.budget;
  flight_ring : int option;
  jobs : int;
  overhead_budget : float option;
}

let default =
  {
    cost_model = Cost_model.default;
    budget = Search.default_budget;
    flight_ring = Some 250;
    jobs = 1;
    overhead_budget = None;
  }
