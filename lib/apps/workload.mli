(** Workload drivers: finding production runs with the failure (and root
    cause) an experiment needs, and training runs for the analyses. *)

open Mvm

(** [find_failing_seed ?cause ?exclusive ?from app] scans 500 seeds from
    [from] (default 1) for a production run whose failure matches the
    app's catalog. With [cause], the primary observed root cause must be
    that id; with [exclusive] (default false), it must be the *only*
    observed cause — clean attribution for the original execution of an
    experiment. With [faults], every scanned run executes under that
    fault plan. With [jobs > 1] the scan may fan over that many OCaml 5
    domains (see {!Ddet_replay.Par_search.pool}); the result is the
    lowest matching seed at any [jobs]. [checkpoint]/[resume] persist and
    restore the scan frontier so a killed scan continues where it stopped
    — see {!Ddet_replay.Search.first_success}. Returns the seed and the
    judged run. *)
val find_failing_seed :
  ?cause:string ->
  ?exclusive:bool ->
  ?from:int ->
  ?faults:Fault.plan ->
  ?jobs:int ->
  ?checkpoint:Ddet_replay.Checkpoint.sink ->
  ?resume:Ddet_replay.Checkpoint.t ->
  App.t ->
  (int * Interp.result) option

(** [failure_rate ?n ?from app] is the fraction of seeds whose run fails —
    workload characterisation for reports. [faults] runs the scan under a
    fault plan. *)
val failure_rate : ?n:int -> ?from:int -> ?faults:Fault.plan -> App.t -> float
