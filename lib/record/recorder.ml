open Mvm

type t = {
  name : string;
  on_event : Event.t -> unit;
  finalize : Interp.result -> Log.t;
}

let make ~name ~on_event ~finalize = { name; on_event; finalize }

let accumulator ~name ?govern () =
  let entries : Log.entry Vec.t = Vec.create () in
  let add e =
    match govern with
    | None -> Vec.push entries e
    | Some g -> List.iter (Vec.push entries) (Governor.admit g e)
  in
  (* per-fidelity-tier entry tallies, named by the governor ladder tier
     that would shed them: sched (level 1 drops), value (level 2), sync
     (level 3); bookkeeping always survives *)
  let tally entries =
    let module T = Ddet_obs.Tracer in
    match T.current () with
    | None -> ()
    | Some t ->
      (* classify locally, bump each counter once: finalize sits on the
         session's critical path, and one atomic add per log entry is
         measurable on entry-heavy recordings *)
      let sched = ref 0 and value = ref 0 and sync = ref 0 and book = ref 0 in
      List.iter
        (fun (e : Log.entry) ->
          incr
            (match e with
            | Log.Sched _ | Log.Cp_sched _ -> sched
            | Log.Input _ | Log.Read_val _ | Log.Cp_input _ | Log.Output _ ->
              value
            | Log.Sync _ -> sync
            | Log.Failure_desc _ | Log.Flight_note _ | Log.Mark _
            | Log.Govern _ -> book))
        entries;
      T.bump (Some (T.counter t "record.entries.sched")) !sched;
      T.bump (Some (T.counter t "record.entries.value")) !value;
      T.bump (Some (T.counter t "record.entries.sync")) !sync;
      T.bump (Some (T.counter t "record.entries.book")) !book
  in
  let finalize (r : Interp.result) =
    (* drain any queued Govern transition before assembling: a level
       change with no later admitted entry must still reach the log *)
    (match govern with
    | Some g -> List.iter (Vec.push entries) (Governor.flush g)
    | None -> ());
    (* the descriptor goes last: pushed before the one copy into a list,
       not appended to the copy *)
    Option.iter (fun f -> Vec.push entries (Log.Failure_desc f)) r.failure;
    let entries = Vec.to_list entries in
    tally entries;
    Log.make ~recorder:name ~entries ~base_steps:r.steps ~failure:r.failure ()
  in
  (add, finalize)

let record ?max_steps ?govern ?monitor recorder labeled ~spec ~world =
  (* the governor's monitor runs first, so its step clock and pressure
     are current by the time the recorder's admission gate consults it;
     an extra monitor (e.g. the causal monitor) slots in next so it sees
     the stream the recorder is about to gate *)
  let monitors =
    (match govern with Some g -> [ Governor.on_event g ] | None -> [])
    @ (match monitor with Some m -> [ m ] | None -> [])
    @ [ recorder.on_event ]
  in
  let result = Interp.run ?max_steps ~monitors labeled world in
  let result = Spec.apply spec result in
  (result, recorder.finalize result)
