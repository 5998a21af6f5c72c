open Mvm
open Ddet_metrics

let find_failing_seed ?cause ?(exclusive = false) ?(from = 1) ?faults
    ?(jobs = 1) ?checkpoint ?resume (app : App.t) =
  let matches r =
    match Root_cause.observed app.App.catalog r with
    | [] -> false
    | primary :: _ as all -> (
      ((not exclusive) || List.length all = 1)
      &&
      match cause with
      | None -> true
      | Some id -> String.equal primary.Root_cause.id id)
  in
  (* seeds are independent, so at jobs > 1 the scan may fan over
     domains; first_success returns the lowest matching seed either way *)
  Ddet_replay.Search.first_success ~jobs ?checkpoint ?resume ~from ~count:500
    ~f:(fun seed ->
      let r = App.production_run ?faults app ~seed in
      if matches r then Some r else None)
    ()

let failure_rate ?(n = 100) ?(from = 1) ?faults (app : App.t) =
  let failures =
    List.init n (fun k ->
        match (App.production_run ?faults app ~seed:(from + k)).Interp.failure with
        | Some _ -> 1
        | None -> 0)
  in
  float_of_int (List.fold_left ( + ) 0 failures) /. float_of_int (max 1 n)
