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
    straight back to level 0 and holds. Every transition emits a
    {!Log.entry.Govern} entry so the log honestly marks its degraded
    windows: the replayer searches them, and the fidelity metrics price
    them as a DF floor instead of pretending the data is there. *)

type t

(** [create ?cost_model ~budget ()] — [budget] is the overhead SLO (must
    exceed 1.0). The hysteresis is fixed: 32 steps of warmup before the
    first transition, at least 16 steps between transitions, and 64
    steps at full fidelity after a trigger boost. The ladder tops out at
    level 3, failure-only. The governor aims slightly below the budget
    so the finished log's measured overhead lands within the SLO rather
    than astride it. *)
val create : ?cost_model:Cost_model.t -> budget:float -> unit -> t

(** Monitor hook: attach {e before} the recorder's own monitor so the
    step clock and pressure are current when {!admit} runs. *)
val on_event : t -> Mvm.Event.t -> unit

(** [admit g e] is the admission gate recorders route every entry
    through: the entries to actually record — any queued [Govern]
    transition entries, then [e] itself if the current ladder level
    admits it. Admitted cost is accounted here. *)
val admit : t -> Log.entry -> Log.entry list

(** Drain queued [Govern] entries at finalize time (a transition with no
    later admitted entry must still reach the log). *)
val flush : t -> Log.entry list

val level : t -> int

(** Entries suppressed by degradation so far. *)
val dropped : t -> int

(** [admits level e] — the pure ladder: does [level] admit [e]? *)
val admits : int -> Log.entry -> bool
