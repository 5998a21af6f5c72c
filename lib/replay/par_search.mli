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

(** Scheduler tuning. All four knobs change only wall-clock behaviour,
    never outcomes — the parity law in the test suite checks restarts
    byte-identical across arbitrary tunings. *)
type tuning = {
  chunk : int;
      (** attempt indices a worker claims per CAS on the shared frontier.
          Higher amortises contention on short attempts; lower smooths
          load imbalance on long ones. *)
  window_per_job : int;
      (** claim window, per job: workers may run at most
          [jobs * window_per_job] attempts ahead of the reducer's
          frontier (floored at [max 2 chunk]). Bounds wasted work after
          a first hit. *)
  spawn_cost_steps : int;
      (** min-work heuristic: when [est_attempt_steps] falls below this,
          fan-out is a guaranteed loss and the pool runs in order
          regardless of [jobs]. *)
  cap_domains : bool;
      (** clamp [jobs] to [Domain.recommended_domain_count ()]. Extra
          domains on an oversubscribed machine only add preemption and
          cache pressure; outcomes are identical at any job count.
          Benches that measure contention on purpose switch this off. *)
}

val default_tuning : tuning
(** [{ chunk = 4; window_per_job = 4; spawn_cost_steps = 15_000;
      cap_domains = true }] *)

(** [effective_jobs ?tuning ~jobs est] is the domain count a pool would
    run on: 1 when the attempt-cost estimate [est] (typically the
    recorded run's [base_steps]) falls below [tuning.spawn_cost_steps],
    and at most the machine's recommended domain count under
    [cap_domains]. *)
val effective_jobs : ?tuning:tuning -> jobs:int -> int option -> int

(** [pool ~jobs ~first ~last ~make_exec ~process ~exhausted ()] runs
    attempts [first..last] and feeds them to [process] in index order
    until it returns [`Stop]; [exhausted ()] is the result when none
    does.

    [make_exec ~worker ~cancel] builds one executor per domain — the
    place for a per-domain arena. [worker] is [None] on the in-order
    path and [Some w] on worker domain [w]; [cancel] is [None] on the
    in-order path and otherwise turns true once the search has stopped,
    so a long attempt may abandon itself. An executor must not raise on
    a worker domain: the seeded engines wrap it in their supervision.

    [process i run] judges attempt [i]; forcing [run] yields its result.
    On the in-order path forcing [run] executes the attempt, so checks
    made before forcing it (a deadline) cost no attempt.

    [est_attempt_steps] feeds the min-work heuristic of
    {!effective_jobs}. *)
val pool :
  ?tuning:tuning ->
  ?est_attempt_steps:int ->
  jobs:int ->
  first:int ->
  last:int ->
  make_exec:(worker:int option -> cancel:(unit -> bool) option -> int -> 'a) ->
  process:(int -> (unit -> 'a) -> [ `Continue | `Stop of 'out ]) ->
  exhausted:(unit -> 'out) ->
  unit ->
  'out

