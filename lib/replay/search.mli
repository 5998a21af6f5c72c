(** Inference engines: reconstruct unrecorded nondeterminism by searching
    the space of worlds for an execution satisfying the model's constraint.

    Three strategies:

    - {!random_restarts} — seeded random executions with streaming abort
      (PRES-style probabilistic replay). Scales to schedule nondeterminism;
      the paper's observation that ultra-relaxed models can need
      "prohibitively large post-factum analysis times" shows up directly as
      exhausted budgets here.
    - {!enumerate_inputs} — exhaustive odometer enumeration of input-value
      assignments under a deterministic schedule (ESD-style synthesis for
      input-dependent bugs). Complete for programs whose only
      nondeterminism is input data.
    - {!dfs_schedules} — systematic interleaving enumeration.

    {!first_success} is the seed scan behind workload selection.

    All work is accounted in VM steps so debugging efficiency (DE) can be
    computed uniformly. Each engine is written once. Random restarts and
    seed scans judge their attempts through one {!Par_search.pool}: an
    in-order loop at [jobs <= 1], the same attempts fanned over OCaml 5
    domains at [jobs > 1], with outcomes that cannot differ. The two
    odometer engines are one in-order loop — resume, counters,
    best-candidate tracking, checkpoint ticks and flushes, supervision,
    and the rule that a clamped probe is not an attempt — which each
    calls with only its executor ({!Engine.exec_inputs},
    {!Engine.exec_schedule}); they take no [jobs]. One resume check
    serves every engine: a checkpoint resumes only the engine kind that
    wrote it, from the same base seed (a seed scan's [from]). *)

open Mvm

type budget = {
  max_attempts : int;  (** maximum executions tried *)
  max_steps_per_attempt : int;  (** step cap per execution *)
  base_seed : int;  (** seed of the first attempt; attempt k uses base+k *)
  deadline_s : float option;
      (** optional wall-clock allowance in seconds. Converted to an
          absolute instant when the engine starts; checked between
          attempts and — via the interpreter's coarse [cancel] poll —
          every 128 steps inside an attempt. On expiry the search
          degrades to its partial outcome with [stats.deadline_hit]
          set, the paper's graceful-degradation stance applied to time:
          DF falls to 1/n instead of the debugger hanging. A run the
          poll cuts is never judged: it ends the search as the check
          before it would have, so a resumed search re-runs it. *)
}

val default_budget : budget

(** A worker mishap the search survived. [worker] is the pool worker's
    domain index at [jobs > 1] ([None] when the attempt ran on the
    calling thread). A requeued
    incident ([poisoned = false]) means the retry succeeded; a poisoned
    one means the attempt was abandoned after [retries] retries. *)
type incident = {
  at_attempt : int;
  worker : int option;
  error : string;
  retries : int;
  poisoned : bool;
}

val pp_incident : Format.formatter -> incident -> unit

type stats = {
  attempts : int;  (** executions actually run and judged *)
  total_steps : int;  (** VM steps across all attempts (inference work) *)
  pruned : int;
      (** DFS probes cut short at a clamped prefix digit (see
          {!dfs_schedules}); their steps are included in [total_steps],
          but they are not [attempts] *)
  success : bool;
  deadline_hit : bool;  (** the wall-clock deadline ended the search *)
  incidents : incident list;
      (** supervision report: requeued and poisoned attempts, in order *)
}

(** A best-effort reproduction: the highest-scoring rejected candidate
    when the budget ran out before any attempt was accepted. [closeness]
    is the caller's [score] of that run (for the replay drivers,
    {!Constraints.closeness} — how far it diverged from the recording). *)
type partial = { best : Interp.result; closeness : float; attempt : int }

type outcome = {
  result : Interp.result option;  (** first accepted execution *)
  partial : partial option;
      (** best rejected candidate — only when [result = None] and a
          [score] was supplied *)
  stats : stats;
}

(** [random_restarts ?score budget ~make ~spec ~accept labeled] runs up to
    [budget.max_attempts] executions. [make ~attempt] supplies the world
    and an optional streaming abort for each attempt (fresh state per
    attempt!). Each completed run is judged by [spec] before [accept].
    [score] ranks rejected runs for the {!partial} outcome (default:
    rank nothing).

    [jobs] (default 1) and [est_attempt_steps] decide where the attempts
    run (see {!Par_search.pool}). They fan out over up to [jobs] domains
    only when [jobs > 1], the cores cap leaves more than one, and the
    attempt-cost estimate [est_attempt_steps] (typically the recorded
    run's [base_steps]) is absent or at least the pool's min-work
    threshold ({!Par_search.default_tuning}); [make] must then be
    callable from any domain. Otherwise they run in order on the calling thread. The
    outcome is the same at every [jobs]; only the incidents' [worker]
    field and wall-clock time differ.

    All three engines share the crash-tolerance conveniences:

    - [checkpoint] — a {!Checkpoint.sink} ticked once per judged attempt
      at iteration boundaries, so the file on disk always describes a
      consistent frontier ("everything before attempt [n] is done"); it
      is flushed when the search ends without a hit, which is what lets
      a deadline-killed search resume later.
    - [resume] — a loaded {!Checkpoint.t}; the engine validates its
      engine kind and base seed (raising [Invalid_argument] on a
      mismatch), restores the counters, frontier and best-candidate key,
      and continues. Because attempts are judged in order, a resumed
      search reaches the same first-hit outcome as an uninterrupted one;
      a restarts checkpoint written at one [jobs] resumes at any other.
    - supervision — an attempt whose execution raises is retried up to a
      bounded number of times, then poisoned (skipped) with an
      {!incident} in [stats.incidents]; the search itself survives.

    Under a tracer, each judged attempt that ran into the step cap bumps
    the counter [search.step_cap_hits] and each one an abort hook cut
    short bumps [search.aborted], on the calling thread: a search that
    exhausts its budget says which of the two spent it. *)
val random_restarts :
  ?jobs:int ->
  ?est_attempt_steps:int ->
  ?score:(Interp.result -> float) ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  budget ->
  make:(attempt:int -> World.t * (Event.t -> string option) option) ->
  spec:Spec.t ->
  accept:(Interp.result -> bool) ->
  Label.labeled ->
  outcome

(** [enumerate_inputs ?score budget ~spec ~accept labeled] explores
    input-value assignments in lexicographic domain order under a
    round-robin schedule; complete up to the attempt budget. *)
val enumerate_inputs :
  ?score:(Interp.result -> float) ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  budget ->
  spec:Spec.t ->
  accept:(Interp.result -> bool) ->
  Label.labeled ->
  outcome

(** [dfs_schedules budget ~spec ~accept labeled] systematically
    enumerates thread interleavings depth-first: each run follows a
    decision prefix and extends it with a default policy (lowest thread
    id), recording the fan-out at every scheduling point; backtracking
    bumps the {e shallowest} decision with room and resets everything
    below it, so the earliest interleaving choices — where races live —
    vary first. Inputs are fixed to each domain's first value, so the
    engine explores schedule nondeterminism only — ESD-style directed
    synthesis, complete for small programs, exponential in general (which
    is the point of the ABL-SEARCH comparison against random restarts).

    A prefix digit that meets a smaller fan-out than it was generated
    against is treated as an exhausted branch (the schedule it denotes
    duplicates an already-enumerated one): the probe is cut short and
    counted in [stats.pruned], not as an attempt. *)
val dfs_schedules :
  ?score:(Interp.result -> float) ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  budget ->
  spec:Spec.t ->
  accept:(Interp.result -> bool) ->
  Label.labeled ->
  outcome

(** [first_success ~from ~count ~f ()] scans [f from], [f (from+1)], …
    and returns the first [Some] with its index — the {e lowest} index
    whose [f] succeeds at every [jobs]. A probe that raises is retried
    once, then poisoned: skipped, like a probe that returned [None].
    [jobs] is as for {!random_restarts}, with no attempt-cost estimate:
    with [jobs > 1] and at least two cores, [f] runs on worker domains
    and higher indices are probed ahead of the lowest unjudged one. Used by
    workload seed scans. [checkpoint]/[resume] persist the scan frontier
    under the "scan" engine kind, with [from] as the identity check. *)
val first_success :
  ?jobs:int ->
  ?checkpoint:Checkpoint.sink ->
  ?resume:Checkpoint.t ->
  from:int ->
  count:int ->
  f:(int -> 'a option) ->
  unit ->
  (int * 'a) option

(**/**)

(** A site-priority hint for attempt worlds: sids a static analysis
    flagged as race-candidate sites. Restart searches whose worlds are
    {!Mvm.World.prioritized} by {!site_prefer} schedule threads sitting
    at a suspect site first (biased, never exclusive), which tends to
    surface racy interleavings in fewer attempts. *)
type site_priority = { sids : int list }

(** [site_prefer p] is the candidate predicate ("next statement is a
    suspect site"). *)
val site_prefer : site_priority -> Mvm.World.cand -> bool

(* deadlines are absolute monotonic instants (Obs.Clock ns), immune to
   wall-clock steps; tests drive them through Obs.Clock.with_source *)
val deadline_reason : string
val deadline_of : budget -> int64 option
val deadline_passed : int64 option -> bool
val wall_cancel : int64 option -> (unit -> string option) option

val max_job_retries : int
