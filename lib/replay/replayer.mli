(** Per-model replay drivers: log in, replayed execution (or exhausted
    budget) out, with the inference work accounted for debugging-efficiency
    metrics.

    Each driver implements one determinism model's replay contract:

    - {!perfect} — deterministic re-execution from the full log;
    - {!value_det} — per-thread forced values, free schedule (iDNA);
    - {!output_det} — search for any execution with the recorded outputs
      (ODR light); uses input enumeration when the program spawns no
      thread, else random restarts with output-prefix pruning;
    - {!failure_det} — search for any execution with the recorded failure
      (ESD execution synthesis);
    - {!sync_det} — recorded sync order and inputs enforced, race outcomes
      searched until outputs match (ODR's heavier scheme);
    - {!rcse} — recorded control-plane subsequence enforced, data plane
      searched until the failure reproduces (§3.1).

    Every searching driver except exhaustive input enumeration is one
    call of {!Search.random_restarts}: the drivers differ only in the
    world and streaming abort each attempt runs under and in what they
    accept; all of them rank rejected runs by {!Constraints.closeness}
    to the recording and pass the recorded run's length as the
    attempt-cost estimate. {!value_det} defaults to {!value_budget}, the
    one small budget every value-model replay runs under.

    When the log carries a fault plan (the recorded run executed under an
    adversarial environment), drivers that build their own replay worlds
    (perfect, failure, output random-restarts, rcse) re-inject the plan so
    the environment — and hence the schedule and deliveries — matches the
    recording. Value- and sync-determinism oracles force poll outcomes
    from the log directly; their recorded decisions already embed the
    faults, so they are not wrapped. *)

open Mvm
open Ddet_record

type outcome = {
  model : string;
  result : Interp.result option;  (** the replayed execution, if any *)
  partial : Search.partial option;
      (** when the budget ran out (or the oracle diverged): the
          best-effort candidate and how close it came to the recording —
          the degraded, DF <= 1/n reproduction the paper asks for instead
          of all-or-nothing failure *)
  attempts : int;
  total_steps : int;  (** VM steps spent on inference across all attempts *)
  deadline_hit : bool;  (** the budget's wall-clock deadline cut the search *)
  incidents : Search.incident list;
      (** supervision report: attempts that crashed and were requeued or
          poisoned instead of aborting the search *)
}

(** [exit_code ?damaged o] is the CLI's exit-code contract, kept here so
    it is testable without forking the binary: [0] reproduced, [3]
    degraded to a partial candidate, [4] the log was damaged/salvaged,
    [5] deadline or budget exhausted with nothing to show. [damaged]
    (the log needed salvage) dominates. *)
val exit_code : ?damaged:bool -> outcome -> int

val exit_ok : int
val exit_partial : int
val exit_salvaged : int
val exit_deadline : int

val perfect : Label.labeled -> spec:Spec.t -> Log.t -> outcome

(** The default budget of {!value_det}: 10 seeds of at most 100,000
    steps each, from base seed 1, no deadline. *)
val value_budget : Search.budget

(** [value_det] tries a few seeds; per-thread value forcing makes each
    attempt cheap. All searching drivers take [jobs] (default 1), which
    only the random-restart searches use: with [jobs > 1] their attempts
    go through {!Par_search.pool}, over up to that many OCaml 5 domains
    (capped at the cores) once the recorded run's [base_steps] reaches
    the pool's min-work threshold, with outcomes identical at any
    [jobs]. Input enumeration ({!output_det} of a program that spawns
    no thread) always runs in order. *)
val value_det :
  ?budget:Search.budget ->
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Label.labeled ->
  spec:Spec.t ->
  Log.t ->
  outcome

(** [output_det] — when the program spawns no thread, its only
    nondeterminism is inputs, so input assignments are enumerated;
    otherwise random restarts with output-prefix pruning. *)
val output_det :
  ?budget:Search.budget ->
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Label.labeled ->
  spec:Spec.t ->
  Log.t ->
  outcome

(** [priority] (from a static race analysis) biases each attempt's world
    toward scheduling threads at suspect sites ({!Mvm.World.prioritized}
    over {!Search.site_prefer}) — same acceptance test, typically fewer
    attempts on race failures.
    Omitting it keeps the historical uniform-random attempts, so
    checkpoints from earlier versions resume identically. *)
val failure_det :
  ?budget:Search.budget ->
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  ?priority:Search.site_priority ->
  Label.labeled ->
  spec:Spec.t ->
  Log.t ->
  outcome

val sync_det :
  ?budget:Search.budget ->
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Label.labeled ->
  spec:Spec.t ->
  Log.t ->
  outcome

(** [strict] (default true) treats out-of-order recorded sites as
    divergence; pass [false] for windowed (trigger/invariant) logs — see
    {!Oracle.rcse}. An attempt is accepted when it reproduces the
    recorded failure (or, for a log that recorded none, runs to its end
    without one); an attempt the oracle aborted is never accepted. Under
    a tracer, the first judged attempt strict RCSE ended where the log
    could no longer be followed is reported by the instant
    [oracle.rcse_diverged] (args [attempt], [step], [tid] and [sid] of
    the log head, and [stands_at], the site the head's thread stands at
    or -1). *)
val rcse :
  ?budget:Search.budget ->
  ?strict:bool ->
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Label.labeled ->
  spec:Spec.t ->
  Log.t ->
  outcome

(** Replay for logs recorded under an overhead governor
    ({!Ddet_record.Governor}): degraded windows are missing entries by
    design, so the deterministic oracles would misalign. Instead the
    driver searches: it is {!failure_det} without a [priority] —
    random restarts under the recorded fault plan, accepting any
    execution that reproduces the recorded failure, with closeness
    scoring so exhaustion still yields the best partial — reported as
    model ["governed"]. Use when {!Ddet_record.Log.governed} holds. *)
val governed :
  ?budget:Search.budget ->
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  Label.labeled ->
  spec:Spec.t ->
  Log.t ->
  outcome

(** Partial-evidence replay over a stitched shard merge ({!Stitch}):
    surviving nodes' merged order and inputs steer each attempt via
    {!Oracle.partial}, lost nodes' schedule and inputs are searched by
    random restarts under the recorded fault plan, accepted when the
    recorded failure reproduces.

    The exit-code contract extends to shard evidence: a reproduction
    from a shard set with missing or salvaged members still exits
    [exit_ok] — missing evidence honestly searched around is a success,
    reported as degraded DF, not an error; exhaustion with a best
    partial candidate is [exit_partial]; an all-shards-lost set (no
    evidence at all — [damaged]) is [exit_salvaged].

    [steer] passes static communication hints ({!Oracle.steer}) to the
    attempts' partial oracles, bounding the search to the lost-node
    decision points that can statically reach surviving evidence. The
    first two attempts always run unsteered — byte-identical to the
    uninformed search — so a failure the projection reproduces on the
    first shots costs the same with or without hints; steering only
    redirects the shots that would otherwise wander. *)
val stitched :
  ?budget:Search.budget ->
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  ?steer:Oracle.steer ->
  Label.labeled ->
  spec:Spec.t ->
  Stitch.t ->
  outcome

(** [pp_outcome] prints model, success, attempts and steps — plus the
    partial candidate's closeness when the replay degraded. *)
val pp_outcome : Format.formatter -> outcome -> unit
