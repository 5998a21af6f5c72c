(** Replay constraints: what "the replay matches the recording" means for
    each determinism model, in both a final form (accept a completed run)
    and a streaming form (abort a doomed run early, which is what makes
    inference affordable).

    Each check reads the log when it is applied to it, before it sees a
    run: [outputs_match log] takes the logged outputs once and returns
    the check, so a search applies it to its log once and the result to
    every attempt. *)

open Mvm
open Ddet_record

(** [failure_matches log r] — the run exhibits the recorded failure
    (failure determinism's guarantee). *)
val failure_matches : Log.t -> Interp.result -> bool

(** [failure_reproduced log r] — the run ran to its end, not cut short by
    an abort hook, and {!failure_matches}: an aborted run has no failure
    of its own, which {!failure_matches} alone would take for a passing
    recording's. *)
val failure_reproduced : Log.t -> Interp.result -> bool

(** [outputs_match log r] — the run's per-channel outputs equal the logged
    ones exactly (output determinism's guarantee). *)
val outputs_match : Log.t -> Interp.result -> bool

(** [output_prefix_abort log ()] is a stateful streaming check: aborts as
    soon as an emitted output differs from (or exceeds) the logged
    sequence for its channel. [output_prefix_abort log] takes the logged
    outputs once; each application of it to [()] is a fresh check, one
    per attempt. *)
val output_prefix_abort : Log.t -> unit -> Event.t -> string option

(** [both a b] combines two abort checks (first hit wins). *)
val both :
  (Event.t -> string option) ->
  (Event.t -> string option) ->
  Event.t ->
  string option

(** [closeness log r] scores in [\[0, 1\]] how near a candidate run came
    to the recording: 0.5 for reproducing the recorded failure plus 0.5
    weighted by the matched per-channel output prefix (just the failure
    half when the log has no outputs). Ranks best-effort candidates for
    {!Search.partial} outcomes; never used for acceptance. *)
val closeness : Log.t -> Interp.result -> float
