(** The attempt pool behind the seeded search engines
    ({!Search.random_restarts}, {!Search.first_success}), whose attempts
    are independent functions of their index.

    One [process] closure judges every attempt in index order, whatever
    the job count; the pool only decides where the attempts run. At
    [jobs <= 1] (after {!effective_jobs}) it is a plain in-order loop on
    the calling thread. At [jobs > 1] it fans the attempts over that many
    OCaml 5 domains: workers claim {e chunks} of attempt indices from an
    atomic frontier with a single CAS and publish results into a bounded
    ring of atomic slots that the calling thread drains in index order —
    no mutex, no per-attempt wakeups. The accepted result is therefore
    the {e lowest} accepting index regardless of which worker finished
    first, and an outcome cannot depend on [jobs].

    The odometer engines ({!Search.enumerate_inputs},
    {!Search.dfs_schedules}) do not use the pool: attempt [k+1]'s prefix
    depends on the fan-outs attempt [k] discovers, so they run in order
    at any [jobs].

    Note for debugging-efficiency (DE) accounting: [total_steps] — the
    paper-facing inference-work metric — is unchanged by [jobs], but
    wall-clock reproduction time depends on cores, so DE figures derived
    from wall-clock must record the [jobs] used. *)

(** The pool's placement policy. It is fixed: nothing takes one as an
    argument, and {!default_tuning} holds the constants the pool reads.
    The policy changes only wall-clock behaviour, never outcomes. *)
type tuning = private {
  chunk : int;
      (** attempt indices a worker claims per CAS on the shared frontier *)
  window_per_job : int;
      (** claim window, per domain: workers may run at most
          [jobs * window_per_job] attempts ahead of the reducer's
          frontier, which bounds wasted work after a first hit *)
  spawn_cost_steps : int;
      (** min-work threshold: when the attempt-cost estimate falls below
          it, fan-out is a guaranteed loss and the pool runs in order
          regardless of [jobs] *)
}

val default_tuning : tuning
(** [{ chunk = 4; window_per_job = 4; spawn_cost_steps = 15_000 }] *)

(** [effective_jobs ~jobs est] is the domain count a pool would run on:
    1 when the attempt-cost estimate [est] (typically the recorded run's
    [base_steps]) falls below [default_tuning.spawn_cost_steps], and
    otherwise [jobs] clamped to [Domain.recommended_domain_count ()]
    (extra domains on an oversubscribed machine only add preemption and
    cache pressure). *)
val effective_jobs : jobs:int -> int option -> int

(** [pool ~jobs ~first ~last ~make_exec ~process ~exhausted ()] runs
    attempts [first..last] and feeds them to [process] in index order
    until it returns [`Stop]; [exhausted ()] is the result when none
    does.

    [make_exec ~worker ~cancel] builds one executor per domain, which
    runs every attempt that domain claims. [worker] is [None] on the
    in-order path and [Some w] on worker domain [w]; [cancel] is [None]
    on the in-order path and otherwise turns true once the search has
    stopped, so a long attempt may abandon itself. An executor must not
    raise on a worker domain: the seeded engines wrap it in their
    supervision.

    [process i run] judges attempt [i]; forcing [run] yields its result.
    On the in-order path forcing [run] executes the attempt, so checks
    made before forcing it (a deadline) cost no attempt.

    [est_attempt_steps] feeds the min-work threshold of
    {!effective_jobs}. *)
val pool :
  ?est_attempt_steps:int ->
  jobs:int ->
  first:int ->
  last:int ->
  make_exec:(worker:int option -> cancel:(unit -> bool) option -> int -> 'a) ->
  process:(int -> (unit -> 'a) -> [ `Continue | `Stop of 'out ]) ->
  exhausted:(unit -> 'out) ->
  unit ->
  'out
