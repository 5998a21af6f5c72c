open Mvm
open Ddet_replay
open Ddet_apps
open Ddet_metrics

type witness = {
  cause_id : string;
  result : Interp.result;
  found_at_attempt : int;
  steps_so_far : int;
}

type outcome = {
  witnesses : witness list;
  attempts : int;
  total_steps : int;
  complete : bool;
}

let all_root_causes ?(budget = Search.default_budget) (app : App.t) ~log =
  let catalog = app.App.catalog in
  let wanted = Root_cause.n_causes catalog in
  let witnesses = ref [] in
  let seen = Hashtbl.create 8 in
  let total_steps = ref 0 in
  let rec go attempt =
    if attempt > budget.Search.max_attempts || Hashtbl.length seen >= wanted
    then attempt - 1
    else begin
      let world = World.random ~seed:(budget.Search.base_seed + attempt) in
      let r =
        Interp.run ~max_steps:budget.Search.max_steps_per_attempt
          app.App.labeled world
      in
      total_steps := !total_steps + r.Interp.steps;
      let r = Spec.apply app.App.spec r in
      if Constraints.failure_matches log r then
        List.iter
          (fun (c : Root_cause.t) ->
            if not (Hashtbl.mem seen c.Root_cause.id) then begin
              Hashtbl.replace seen c.Root_cause.id ();
              witnesses :=
                {
                  cause_id = c.Root_cause.id;
                  result = r;
                  found_at_attempt = attempt;
                  steps_so_far = !total_steps;
                }
                :: !witnesses
            end)
          (Root_cause.observed catalog r);
      go (attempt + 1)
    end
  in
  let attempts = go 1 in
  {
    witnesses = List.rev !witnesses;
    attempts;
    total_steps = !total_steps;
    complete = Hashtbl.length seen >= wanted;
  }
