(** The paper's first open question (§5): "a system that records just the
    failure and finds {e all} root cause-equivalent executions that exhibit
    the failure would be ideal. The challenge is scaling this approach to
    real programs."

    This module implements that system on the mini-VM and measures the
    scaling challenge directly: starting from a failure-determinism log
    (nothing but the failure descriptor), it keeps synthesizing executions
    that exhibit the failure and collects one witness execution per
    distinct root cause, until the application's catalog is covered or the
    budget runs out. The per-cause discovery costs it reports are the
    quantitative form of "the challenge is scaling". *)

open Mvm
open Ddet_apps

type witness = {
  cause_id : string;
  result : Interp.result;  (** the first synthesized execution showing it *)
  found_at_attempt : int;
  steps_so_far : int;  (** cumulative VM steps when this cause appeared *)
}

type outcome = {
  witnesses : witness list;  (** discovery order *)
  attempts : int;
  total_steps : int;
  complete : bool;  (** every catalog cause was witnessed *)
}

(** [all_root_causes ?budget app ~log] explores from a recorded failure.
    Runs that do not exhibit the recorded failure are discarded; each that
    does is attributed by the catalog, and new causes become witnesses. *)
val all_root_causes :
  ?budget:Ddet_replay.Search.budget ->
  App.t ->
  log:Ddet_record.Log.t ->
  outcome
