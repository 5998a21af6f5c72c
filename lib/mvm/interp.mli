(** The mini-VM interpreter.

    One call to {!run} executes a labelled program to completion under a
    {!World.t}, producing a {!result} with the full event trace. Threads
    interleave at statement granularity; a thread is a scheduling candidate
    only when its next statement can execute now (a receive on an empty
    channel or a lock held by another thread removes it from candidacy), so
    blocked threads consume no steps and deadlock is detected exactly.

    There is one interpreter: {!run} is {!compile} followed by
    {!run_compiled}, so recording, replay and search execute the same
    code. *)

type status =
  | Done  (** every thread ran to completion *)
  | Crashed of Failure.t  (** a thread crashed; the run stops immediately *)
  | Deadlock  (** live threads exist but none is a candidate *)
  | Step_limit  (** [max_steps] exhausted *)
  | Aborted of string  (** an [abort] callback cut the run short *)

type result = {
  status : status;
  trace : Trace.t;
  steps : int;  (** scheduler steps executed *)
  outputs : (string * Value.t list) list;
      (** per-channel, emission order, channels sorted by name: gathered
          as each [Out] event is emitted, so it equals
          [Trace.outputs trace] without a pass over the trace *)
  failure : Failure.t option;
      (** [Crashed f] yields [Some f]; [Deadlock]/[Step_limit] yield
          [Some Hang]; [Done] yields [None] until an I/O specification is
          applied (see {!Spec.apply}) *)
}

(** [run ?max_steps ?monitors ?abort ?cancel labeled world] compiles the
    program ({!compile}, so a program this domain has run recently is
    not lowered again) and executes it with {!run_compiled}. Every run
    builds its own exec state; the compiled program is the only thing
    runs share.

    [monitors] observe every event as it is emitted (recorders attach
    here). [abort] may return a reason to stop the run early (replay
    searches use it to prune executions whose outputs already diverge from
    the recording). [cancel] is a cheaper cousin of [abort] polled in the
    step loop only every 128 steps: search engines use it for wall-clock
    deadline checks, whose cost (a system clock read) would be prohibitive
    per event; a [Some reason] finishes the run as [Aborted reason].
    Default [max_steps] is 200_000.

    Each thread's next instruction and its one {!World.cand} record are
    resolved once, right after the thread steps or is spawned; the
    interpreter moves the record to the thread's next site in place
    (which is why a candidate is valid only during the [pick_thread]
    call that receives it). The run keeps its thread table and its
    candidate set in arrays it owns: each step hands the world the
    candidate array and the count [n] of candidates in it, in thread
    order, and runs the candidate at the index the world returns; an
    index outside [\[0, n)] raises [Invalid_argument]. The array is
    rewritten in place between steps, so a world reads it only during
    the call and never keeps it. How much of the scheduling-candidate
    set survives a step follows the world's {!World.forcing} promise:
    - [Never] (random worlds, the search engines' worlds, perfect, sync,
      RCSE and partial replay): the set is cached between steps. After
      a purely thread-local statement it changes only if the executing
      thread blocked or finished, which drops its entry (the later
      entries shift down one slot); channel, lock and spawn operations
      rebuild it in place. A blocked receive's candidacy
      depends on its queue alone, so the world is not asked about it: a
      [Force_fail] or [Default] answer leaves the receive blocked
      either way.
    - [Own_steps] (value replay): the same cache, but the rebuild asks
      [on_try_recv] about every blocked receive, and the check after a
      local step asks about the executing thread's own receive; no
      other thread's answer can have changed.
    - [Anything] (a fault plan with [Duplicate]): no cache; every step
      recomputes the set and asks about every blocked receive.

    The cached set is observationally identical to the recomputed one,
    so worlds see the same candidates in the same order either way; the
    replay oracles, and what every world sees inside [pick_thread], are
    held to that by laws against the reference walker. *)
val run :
  ?max_steps:int ->
  ?monitors:(Event.t -> unit) list ->
  ?abort:(Event.t -> string option) ->
  ?cancel:(unit -> string option) ->
  Label.labeled ->
  World.t ->
  result

(** [status_to_string s] is a short human-readable tag. *)
val status_to_string : status -> string

(** [outputs_on r chan] is the values [r] emitted on [chan], in order
    ([[]] for a channel it never wrote): [Trace.outputs_on r.trace chan]
    read from {!result.outputs}, with no pass over the trace. I/O
    specifications read it, since {!Spec.apply} judges every production
    run, recording and replay attempt. *)
val outputs_on : result -> string -> Value.t list

(** {1 Compiled form}

    {!compile} lowers a labelled program once into flat per-function
    instruction arrays with pre-resolved jump targets, integer local
    slots, integer region ids and pre-resolved call targets, so no step
    pays for function lookup by name, hashtable locals, block entry or
    input-domain lookups. An [atomic] body is lowered the same way,
    inline right after a marker that holds its end, and runs within the
    marker's one step through the same statement executor as every
    other step. The reference AST walker in [test/] executes
    the statement tree directly and recomputes the candidate set at
    every step; the parity tests in [test_mvm] (over the proggen corpus)
    and the laws in [test_props] (over production runs, recordings and
    perfect replays of the shipped apps) require the same status, steps,
    events, outputs and failure from both. *)

(** A program lowered for fast execution. Immutable and domain-safe: one
    [compiled] value may be shared by concurrent runs on many domains. *)
type compiled

(** [compile labeled] lowers the program, once per domain: each domain
    keeps the last 8 programs it compiled, keyed on the physical
    identity of [labeled], and returns the kept value for a program it
    holds. Every {!run} (a session's production run, recording and
    replay, and every search attempt) goes through it, so they all
    reuse one compiled program per domain. The program must be
    validated (every [Label.program] is): compilation resolves region
    names eagerly and raises [Invalid_argument] on an undeclared region.
    Unknown call targets and arity mismatches are kept as runtime
    crashes: a run crashes only when it reaches the call. *)
val compile : Label.labeled -> compiled

(** [run_compiled c world] executes the compiled program on exec state
    of its own (region tables, channel queues, lock table and threads,
    built from [c]'s initial values); all optional arguments behave
    exactly as on {!run}. *)
val run_compiled :
  ?max_steps:int ->
  ?monitors:(Event.t -> unit) list ->
  ?abort:(Event.t -> string option) ->
  ?cancel:(unit -> string option) ->
  compiled ->
  World.t ->
  result
