open Mvm

(* Overhead governor: keeps the recording within an overhead budget by
   walking a degradation ladder, instead of letting a hot workload blow
   the SLO or (worse) killing the recorder.

   Ladder levels, in terms of what each admits to the log:

     0  everything the recorder emits (full fidelity for that recorder)
     1  drop full-interleaving schedule points (Sched/Cp_sched) — the
        value-determinism tier: data survives, exact interleaving is
        re-found by search
     2  also drop logged values (Input/Read_val/Cp_input/Output) — the
        sync-determinism tier: only the synchronisation skeleton
     3  failure-only: nothing but the failure descriptor and bookkeeping

   Bookkeeping entries (Failure_desc, Mark, Flight_note, Govern) always
   pass: the governor exists to protect fidelity honestly, and honesty
   is exactly those entries.

   Pressure is the same quantity Cost_model.overhead reports, tracked
   online: (step_cost * steps + admitted_cost) / (step_cost * steps).
   The governor degrades one level when pressure crosses the budget
   (with a little headroom, so the measured overhead of the finished log
   lands within the SLO, not astride it), and dials back up when
   pressure clears. Hysteresis — a warmup before the first move, a
   dwell between moves, and separated up/down thresholds — keeps it
   from flapping. A trigger firing (the RCSE selector dialing itself
   high) boosts straight back to full fidelity and holds there: the
   moments after a trigger are the ones worth paying for.

   Every transition emits a Log.Govern entry, so the log itself says
   which step ranges are degraded, to what level, and why — the
   replayer treats those windows as search regions and Metrics.Fidelity
   prices them as a DF floor. *)

(* hysteresis, in steps *)
let warmup = 32 (* before the first transition *)
let dwell = 16 (* between transitions *)
let trigger_hold = 64 (* at full fidelity after a trigger boost *)

type t = {
  budget : float;
  cm : Cost_model.t;
  high : float;  (* degrade above this *)
  low : float;  (* recover below this *)
  mutable level : int;
  mutable cur_step : int;
  mutable admitted_cost : float;
  mutable last_transition : int;
  mutable hold_until : int;  (* no degrading before this step (boost hold) *)
  mutable pending : Log.entry list;  (* queued Govern entries, in order *)
  mutable dropped : int;
}

let create ?(cost_model = Cost_model.default) ~budget () =
  if budget <= 1.0 then invalid_arg "Governor.create: budget must exceed 1.0";
  let high = 1.0 +. ((budget -. 1.0) *. 0.9) in
  {
    budget;
    cm = cost_model;
    high;
    low = 1.0 +. ((high -. 1.0) *. 0.6);
    level = 0;
    cur_step = 0;
    admitted_cost = 0.0;
    last_transition = 0;
    hold_until = 0;
    pending = [];
    dropped = 0;
  }

let level g = g.level
let dropped g = g.dropped

let overhead g =
  let base = g.cm.Cost_model.step_cost *. float_of_int (max 1 g.cur_step) in
  (base +. g.admitted_cost) /. base

let transition g level reason =
  g.pending <- g.pending @ [ Log.Govern { step = g.cur_step; level; reason } ];
  (* the ladder move is part of the session's observable story: the
     trace shows when and to what level fidelity degraded *)
  Ddet_obs.Tracer.count "govern.transitions" 1;
  Ddet_obs.Tracer.instant_ "govern.transition"
    ~args:
      [
        ("from", Ddet_obs.Tracer.Count g.level);
        ("to", Ddet_obs.Tracer.Count level);
        ("step", Ddet_obs.Tracer.Count g.cur_step);
      ];
  g.level <- level;
  g.last_transition <- g.cur_step

let boost g reason =
  if g.level > 0 then transition g 0 reason;
  g.hold_until <- g.cur_step + trigger_hold

(* Called on every event (the governor is a monitor ahead of the
   recorder), so level changes land on the step where pressure actually
   crossed, not on the next admitted entry. *)
let on_event g (e : Event.t) =
  if e.step > g.cur_step then g.cur_step <- e.step;
  if g.cur_step >= warmup && g.cur_step - g.last_transition >= dwell then begin
    let ov = overhead g in
    if ov > g.high && g.level < 3 && g.cur_step >= g.hold_until then
      transition g (g.level + 1)
        (Printf.sprintf "overhead %.2fx vs budget %.2fx" ov g.budget)
    else if ov < g.low && g.level > 0 then
      transition g (g.level - 1) (Printf.sprintf "pressure cleared (%.2fx)" ov)
  end

(* the highest ladder level that still admits an entry *)
let tier (entry : Log.entry) =
  match entry with
  | Log.Sched _ | Log.Cp_sched _ -> 0
  | Log.Input _ | Log.Read_val _ | Log.Cp_input _ | Log.Output _ -> 1
  | Log.Sync _ -> 2
  | Log.Failure_desc _ | Log.Mark _ | Log.Govern _ | Log.Flight_note _ -> 3

let admits level entry = tier entry >= level

let is_trigger_mark = function
  | Log.Mark m ->
    String.length m >= 9 && String.equal (String.sub m 0 9) "dial-high"
  | _ -> false

let admit g entry =
  if is_trigger_mark entry then boost g "trigger fired";
  let kept = admits g.level entry in
  if not kept then begin
    g.dropped <- g.dropped + 1;
    Ddet_obs.Tracer.count "govern.dropped" 1
  end;
  let out = g.pending @ (if kept then [ entry ] else []) in
  g.pending <- [];
  List.iter
    (fun e -> g.admitted_cost <- g.admitted_cost +. Cost_model.entry_cost g.cm e)
    out;
  out

let flush g =
  let out = g.pending in
  g.pending <- [];
  out
