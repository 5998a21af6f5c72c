open Mvm

(* bounded ring of would-be log entries kept while fidelity is low *)
type ring = {
  capacity : int;
  q : Log.entry Queue.t;
  mutable buffered_total : int;
}

let ring_push ring e =
  ring.buffered_total <- ring.buffered_total + 1;
  Queue.push e ring.q;
  if Queue.length ring.q > ring.capacity then ignore (Queue.pop ring.q)

(* [k] gets the entry a high-fidelity window logs for [e], if there is
   one: built directly, no list per event *)
let with_entry k (e : Event.t) =
  match e.kind with
  | Event.Step -> k (Log.Cp_sched { tid = e.tid; sid = e.sid })
  | Event.In io ->
    k (Log.Cp_input { tid = e.tid; sid = e.sid; chan = io.chan; value = io.value.Value.v })
  | Event.Out io -> k (Log.Output { chan = io.chan; value = io.value.Value.v })
  | Event.Read _ | Event.Write _ | Event.Msg_send _ | Event.Msg_recv _
  | Event.Lock_acq _ | Event.Lock_rel _ | Event.Spawned _ | Event.Crashed _ ->
    ()

let create ?flight ?govern (selector : Fidelity_level.selector) =
  let name = "rcse:" ^ selector.name in
  let add, finalize = Recorder.accumulator ~name ?govern () in
  let current = ref Fidelity_level.Low in
  let ring =
    Option.map
      (fun capacity -> { capacity; q = Queue.create (); buffered_total = 0 })
      flight
  in
  let push_ring = match ring with Some ring -> ring_push ring | None -> ignore in
  let on_event (e : Event.t) =
    let level = selector.level e in
    if not (Fidelity_level.equal level !current) then (
      current := level;
      add
        (Log.Mark
           (match level with
           | Fidelity_level.High -> "dial-high"
           | Fidelity_level.Low -> "dial-low"));
      (* a dial-up flushes the flight ring: the moments leading up to the
         trigger become part of the recording *)
      match level, ring with
      | Fidelity_level.High, Some ring when not (Queue.is_empty ring.q) ->
        add (Log.Mark "flight-flush");
        Queue.iter add ring.q;
        Queue.clear ring.q
      | _, _ -> ());
    match level with
    | Fidelity_level.Low -> (
      (* the ring keeps data (inputs/outputs), not schedule points: a
         windowed log's schedule is not enforceable across the window
         boundary anyway, so buffering it would be pure cost *)
      match ring, e.kind with
      | Some _, (Event.In _ | Event.Out _) -> with_entry push_ring e
      | Some _, _ | None, _ -> ())
    | Fidelity_level.High -> with_entry add e
  in
  let finalize result =
    (match ring with
    | Some ring when ring.buffered_total > 0 ->
      add (Log.Flight_note { buffered = ring.buffered_total })
    | _ -> ());
    finalize result
  in
  Recorder.make ~name ~on_event ~finalize
