(** Overhead governor: graceful fidelity degradation under an SLO.

    Tracks the running recording overhead (the same quantity
    {!Cost_model.overhead} reports for a finished log) against a budget
    like [1.3] ("recording may cost at most 1.3x") and walks a
    degradation ladder when the workload gets too hot:

    {v
    level 0   everything the recorder emits
    level 1   drop schedule points (Sched/Cp_sched)      — value tier
    level 2   also drop logged values                    — sync tier
    level 3   failure descriptor and bookkeeping only    — failure tier
    v}

    Bookkeeping ({!Log.entry.Failure_desc}, [Mark], [Flight_note],
    [Govern]) always passes. Hysteresis — a warmup before the first
    move, a dwell between moves, separated up/down thresholds — stops
    flapping; a trigger firing (an RCSE selector dialing high) boosts
    straight back to level 0 and holds. Every transition writes a
    {!Log.entry.Govern} entry so the log honestly marks its degraded
    windows, and the fidelity metrics price them as a DF floor instead
    of pretending the data is there. Replay does not search the windows:
    it is failure-directed random restarts over the whole run. *)

type t

(** [create ?cost_model ~budget ()] — [budget] is the overhead SLO (must
    exceed 1.0). The hysteresis is fixed: 32 steps of warmup before the
    first transition, at least 16 steps between transitions, and 64
    steps at full fidelity after a trigger boost. The ladder tops out at
    level 3, failure-only. The governor aims slightly below the budget
    so the finished log's measured overhead lands within the SLO rather
    than astride it. *)
val create : ?cost_model:Cost_model.t -> budget:float -> unit -> t

(** [on_event g emit e] is the monitor hook: attach it {e before} the
    recorder's own monitor so the step clock and pressure are current
    when {!admit} runs. A ladder transition writes its [Govern] entry to
    [emit] at the step where it happens. *)
val on_event : t -> (Log.entry -> unit) -> Mvm.Event.t -> unit

(** [admit g emit e] is the admission gate: [e] goes to [emit], its cost
    accounted, if the current ladder level admits it, and counts as
    dropped otherwise; a trigger mark boosts the ladder to level 0
    first. {!Recorder.record}, the one place a recording is handed its
    governor, routes every entry a recorder emits through it, with the
    sink it gives {!on_event}. *)
val admit : t -> (Log.entry -> unit) -> Log.entry -> unit

val level : t -> int

(** Entries suppressed by degradation so far. *)
val dropped : t -> int

(** [tier e] is the highest ladder level that still admits [e]: 0 for
    schedule points, 1 for logged values, 2 for sync operations, 3 for
    bookkeeping. The gate and the recording driver's per-class entry
    tally both read it. *)
val tier : Log.entry -> int

(** [admits level e] — the pure ladder: does [level] admit [e]? It is
    [tier e >= level]. *)
val admits : int -> Log.entry -> bool
