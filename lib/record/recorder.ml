open Mvm

type t = {
  name : string;
  attach : (Log.entry -> unit) -> (Event.t -> unit) * (unit -> unit);
}

(* the recorders that decide each event alone and add nothing at the
   end *)

let perfect =
  let attach emit =
    let on_event (e : Event.t) =
      match e.kind with
      | Event.Step -> emit (Log.Sched { tid = e.tid; sid = e.sid })
      | Event.In io ->
        emit (Log.Input { tid = e.tid; chan = io.chan; value = io.value.Value.v })
      | Event.Read _ | Event.Write _ | Event.Out _ | Event.Msg_send _
      | Event.Msg_recv _ | Event.Lock_acq _ | Event.Lock_rel _ | Event.Spawned _
      | Event.Crashed _ ->
        ()
    in
    (on_event, ignore)
  in
  { name = "perfect"; attach }

let value =
  let attach emit =
    let on_event (e : Event.t) =
      match e.kind with
      | Event.Read a ->
        emit
          (Log.Read_val
             { tid = e.tid; sid = e.sid; kind = Log.Mem; value = a.value.Value.v })
      | Event.Msg_recv io ->
        emit
          (Log.Read_val
             { tid = e.tid; sid = e.sid; kind = Log.Msg; value = io.value.Value.v })
      | Event.In io ->
        emit (Log.Input { tid = e.tid; chan = io.chan; value = io.value.Value.v })
      | Event.Step | Event.Write _ | Event.Out _ | Event.Msg_send _
      | Event.Lock_acq _ | Event.Lock_rel _ | Event.Spawned _ | Event.Crashed _ ->
        ()
    in
    (on_event, ignore)
  in
  { name = "value"; attach }

let output =
  let attach emit =
    let on_event (e : Event.t) =
      match e.kind with
      | Event.Out io -> emit (Log.Output { chan = io.chan; value = io.value.Value.v })
      | Event.Step | Event.Read _ | Event.Write _ | Event.In _ | Event.Msg_send _
      | Event.Msg_recv _ | Event.Lock_acq _ | Event.Lock_rel _ | Event.Spawned _
      | Event.Crashed _ ->
        ()
    in
    (on_event, ignore)
  in
  { name = "output"; attach }

let failure = { name = "failure"; attach = (fun _ -> (ignore, ignore)) }

let sync =
  let attach emit =
    let on_event (e : Event.t) =
      match e.kind with
      | Event.In io ->
        emit (Log.Input { tid = e.tid; chan = io.chan; value = io.value.Value.v })
      | Event.Out io -> emit (Log.Output { chan = io.chan; value = io.value.Value.v })
      | Event.Msg_send io ->
        emit (Log.Sync { tid = e.tid; sid = e.sid; op = Log.Op_send io.chan })
      | Event.Msg_recv io ->
        emit (Log.Sync { tid = e.tid; sid = e.sid; op = Log.Op_recv io.chan })
      | Event.Spawned _ ->
        emit (Log.Sync { tid = e.tid; sid = e.sid; op = Log.Op_spawn })
      | Event.Lock_acq m ->
        emit (Log.Sync { tid = e.tid; sid = e.sid; op = Log.Op_lock m })
      | Event.Lock_rel m ->
        emit (Log.Sync { tid = e.tid; sid = e.sid; op = Log.Op_unlock m })
      | Event.Step | Event.Read _ | Event.Write _ | Event.Crashed _ -> ()
    in
    (on_event, ignore)
  in
  { name = "sync"; attach }

(* [k] gets the entry an RCSE high-fidelity window logs for [e], if there
   is one: built directly, no list per event *)
let with_rcse_entry k (e : Event.t) =
  match e.kind with
  | Event.Step -> k (Log.Cp_sched { tid = e.tid; sid = e.sid })
  | Event.In io ->
    k (Log.Cp_input { tid = e.tid; sid = e.sid; chan = io.chan; value = io.value.Value.v })
  | Event.Out io -> k (Log.Output { chan = io.chan; value = io.value.Value.v })
  | Event.Read _ | Event.Write _ | Event.Msg_send _ | Event.Msg_recv _
  | Event.Lock_acq _ | Event.Lock_rel _ | Event.Spawned _ | Event.Crashed _ ->
    ()

let rcse ?flight (selector : Fidelity_level.selector) =
  let attach emit =
    let current = ref Fidelity_level.Low in
    (* the flight ring: the would-be entries of the latest low-fidelity
       events, and how many ever passed through it *)
    let ring = Option.map (fun capacity -> (capacity, Queue.create ())) flight in
    let buffered = ref 0 in
    let push_ring e =
      match ring with
      | Some (capacity, q) ->
        incr buffered;
        Queue.push e q;
        if Queue.length q > capacity then ignore (Queue.pop q)
      | None -> ()
    in
    let on_event (e : Event.t) =
      let level = selector.level e in
      if not (Fidelity_level.equal level !current) then (
        current := level;
        emit
          (Log.Mark
             (match level with
             | Fidelity_level.High -> "dial-high"
             | Fidelity_level.Low -> "dial-low"));
        (* a dial-up flushes the flight ring: the moments leading up to the
           trigger become part of the recording *)
        match level, ring with
        | Fidelity_level.High, Some (_, q) when not (Queue.is_empty q) ->
          emit (Log.Mark "flight-flush");
          Queue.iter emit q;
          Queue.clear q
        | _, _ -> ());
      match level, ring, e.kind with
      | Fidelity_level.High, _, _ -> with_rcse_entry emit e
      (* the ring keeps data (inputs/outputs), not schedule points: a
         windowed log's schedule is not enforceable across the window
         boundary anyway, so buffering it would be pure cost *)
      | Fidelity_level.Low, Some _, (Event.In _ | Event.Out _) ->
        with_rcse_entry push_ring e
      | Fidelity_level.Low, _, _ -> ()
    in
    let finish () =
      if !buffered > 0 then emit (Log.Flight_note { buffered = !buffered })
    in
    (on_event, finish)
  in
  { name = "rcse:" ^ selector.name; attach }

(* the log's entries per ladder tier, one counter bump per tier: the
   tally sits on the session's critical path, and one atomic add per
   entry is measurable on entry-heavy recordings *)
let tier_counters =
  [| "record.entries.sched"; "record.entries.value"; "record.entries.sync";
     "record.entries.book" |]

let tally entries =
  let module T = Ddet_obs.Tracer in
  match T.current () with
  | None -> ()
  | Some t ->
    let counts = Array.make (Array.length tier_counters) 0 in
    List.iter
      (fun e ->
        let i = Governor.tier e in
        counts.(i) <- counts.(i) + 1)
      entries;
    Array.iteri
      (fun i name -> T.bump (Some (T.counter t name)) counts.(i))
      tier_counters

let record ?govern ?monitor
    ?(run = fun ~monitors labeled world -> Interp.run ~monitors labeled world)
    recorder labeled ~spec ~world =
  let entries : Log.entry Vec.t = Vec.create () in
  let push e = Vec.push entries e in
  let emit = match govern with None -> push | Some g -> Governor.admit g push in
  let on_event, finish = recorder.attach emit in
  (* the governor's monitor runs first, so its step clock and pressure
     are current by the time an entry reaches its gate, and a transition
     lands ahead of that event's entries; an extra monitor (e.g. the
     causal monitor) slots in next so it sees the stream the recorder is
     about to gate *)
  let monitors =
    (match govern with Some g -> [ Governor.on_event g push ] | None -> [])
    @ Option.to_list monitor @ [ on_event ]
  in
  let result = Spec.apply spec (run ~monitors labeled world) in
  finish ();
  (* the descriptor goes last, past the gate: pushed before the one copy
     into a list, not appended to the copy *)
  Option.iter (fun f -> push (Log.Failure_desc f)) result.failure;
  let entries = Vec.to_list entries in
  tally entries;
  ( result,
    Log.make ~recorder:recorder.name ~entries ~base_steps:result.steps
      ~failure:result.failure () )
