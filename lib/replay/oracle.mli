(** Replay oracles: worlds reconstructed from recording logs.

    Each determinism model turns its log back into a {!Mvm.World.t} that
    forces the recorded projection of the original execution and leaves the
    rest free (to be searched). An oracle may detect mid-run that the
    current execution cannot be consistent with the log (e.g. a recorded
    schedule point would have to execute out of order); its [abort] hook
    reports that so the search can prune the attempt. *)

open Mvm
open Ddet_record

(** Where strict {!rcse} found that an attempt can no longer follow its
    log. *)
type divergence = {
  step : int;  (** the pick that found it *)
  head_tid : int;
  head_sid : int;  (** the log head, at no candidate *)
  stands_at : int;
      (** the pending site the head's thread stands at (rule 1), or -1
          (rule 2) *)
}

(** A replay world plus its divergence detector. *)
type handle = {
  world : World.t;
  abort : Event.t -> string option;
      (** returns a reason once the run has diverged from the log *)
  violated : unit -> bool;  (** true once divergence was detected *)
  diverged : unit -> divergence option;
      (** where a rule of strict {!rcse} ended the attempt; [None] for
          every other oracle *)
}

(** [perfect log] replays a perfect-determinism log: the full recorded
    interleaving is enforced and all inputs are fed back. Divergence is a
    recorder/replayer bug, not an expected outcome. *)
val perfect : Log.t -> handle

(** [value_det ~seed log] replays a value-determinism log: thread schedule
    is free (seeded random), but every shared read, message receive and
    input of thread [t] observes the recorded per-thread value sequence.
    Cross-thread causality is not enforced — iDNA's relaxation. A receive
    whose thread's next logged observation is a message at its site is
    forced to succeed with that message, so the world forces receives;
    it declares {!Mvm.World.forcing} [Own_steps], since only [t]'s own
    reads and receives advance [t]'s observations, and keeps the
    interpreter's candidate cache. *)
val value_det : seed:int -> Log.t -> handle

(** [rcse ~seed log] replays an RCSE log: the recorded [Cp_sched]
    subsequence is enforced — a thread whose next site matches a *later*
    log entry is held back, the head entry is run when eligible — and
    [Cp_input] values are fed to inputs executed at recorded sites.
    Everything else (data-plane schedule and inputs) is free, seeded
    random: the search layer supplies consistency.

    [strict] (default true) flags any recorded site executing out of log
    order as divergence — correct for code-based selection, whose
    high-fidelity sites are static. Windowed selections (trigger- or
    invariant-driven) record a time slice, so the same sites also run
    legitimately outside the window: with [strict:false] the schedule log
    is not enforced at all — the recorded inputs are still pinned by site,
    and the acceptance constraint judges each searched schedule.

    Whether a pair is still pending is read from a table indexed by
    site, whose size is fixed, never taken from the log: a pair outside
    the program (a negative or huge sid, a tid no run spawns) is held
    like any other and simply never matches.

    Under [strict], an attempt that can no longer follow the log is
    declared divergent at the pick that finds it, and its next event
    aborts it, as an out-of-order site would. Two rules find it at a
    pick whose log head (t, s) is at no candidate:
    - {b held head} (exact): thread t is a candidate at another site s'
      whose (t, s') is still pending. Every step emits its own site, so
      t's next step emits (t, s') ahead of its place in the log, which
      strict mode already counts as divergence; and t cannot reach s
      without taking that step.
    - {b starved head} (backstop): the head has been at no candidate
      for more picks in a row than the log's [base_steps]. It catches a
      head whose thread is blocked behind held threads, which rule 1
      cannot see. The original run took [base_steps] steps in all, so
      its head never waited longer; the bound comes from the log, and a
      log without it ([base_steps <= 0]) skips the rule.
    Before a rule fires, every decision is the one the oracle made
    without them, so an attempt that follows the log runs as before:
    only attempts that could not reproduce it end sooner. Windowed
    replay ([strict:false]) has no cursor and neither rule applies.

    Under a tracer, a pick whose head entry is at no candidate bumps
    [oracle.rcse_stalls], and a pick with no safe candidate left (a risky
    one) also bumps [oracle.rcse_risky]. An attempt a rule ends bumps
    [oracle.rcse_held] (rule 1) or [oracle.rcse_starved] (rule 2) once,
    and [diverged] returns where. *)
val rcse : ?strict:bool -> seed:int -> Log.t -> handle

(** [sync ~seed log] replays a sync-schedule log by enforcing *per-object*
    operation orders (per-channel send/consume order, spawn order, per-lock
    acquisition order), which is what an ODR-style logger records. A
    try_recv whose thread is not the channel's next recorded consumer is
    forced to miss; sends/spawns/locks are scheduled only in recorded
    order; inputs are fed back per-thread. Plain shared-memory race
    outcomes remain free — they are what inference must fill in. The
    oracle forces misses only, never a receive to succeed, so its world
    declares {!Mvm.World.forcing} [Never], as {!perfect}, {!rcse} and
    {!partial} do.

    No hook hashes. Which sites are held to an order is read from a
    table indexed by site, of the same fixed size as {!rcse}'s. An
    event's object (a channel or lock) is a literal of its statement,
    so the abort hook and [on_try_recv] look a site's order up by name
    the first time the site touches it and keep it per site. An object
    the log never mentions has an empty order: its events abort the
    attempt with ["sync-order-divergence"] and its polls miss. *)
val sync : seed:int -> Log.t -> handle

(** Static steering hints for partial-evidence search. The static layer
    produces them ([Ddet_static.Static_report.steer] returns this record;
    that library depends on this one, not the other way round). *)
type steer = {
  lost_tids : int list;  (** tids of all lost-node threads *)
  hot_sids : int list;
      (** lost-node decision points worth searching: sends on channels
          that may still land on a survivor, plus race-suspect sites *)
  cold_input_tids : int list;
      (** lost threads on nodes with no static path to any survivor —
          their inputs provably never influenced surviving evidence, so
          the search pins them instead of enumerating *)
}

(** The empty hint set: [partial] with it behaves exactly as without. *)
val no_steer : steer

(** [partial ?steer ~seed log] replays a stitched partial-evidence merge
    ({!Stitch}): the merged order steers scheduling — the cursor's head
    runs whenever it is an eligible candidate, everything else is a
    seeded-random pick over all candidates — and surviving threads'
    inputs are fed back per thread, while threads of lost nodes sample
    their inputs from the domain: the lost evidence is the search
    dimension. Never aborts: the lost node's altered timing legitimately
    shifts how surviving threads interleave, so a stalled cursor is
    expected, not divergence — acceptance and closeness scoring judge
    each attempt instead.

    With [steer], a free pick takes a lost thread sitting at a hot site
    whenever one is eligible (falling back to the uniform pick
    otherwise), and cold threads' unlogged inputs are pinned to the
    domain head instead of sampled — shrinking the search space to the
    dimensions the static communication graph says can matter. *)
val partial : ?steer:steer -> seed:int -> Log.t -> handle
