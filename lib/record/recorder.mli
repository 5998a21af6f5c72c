(** The recorders, one per determinism model, and the one recording driver.

    A determinism model is, at production time, the choice of which events
    the log keeps (§3.1). A recorder holds only that choice: attached to
    where its entries go, it yields an observer for every event of the run
    and a hook for the end of the run. {!record} owns everything else — the
    entry buffer, the overhead governor, the failure descriptor and the
    per-class entry tally — so every entry of every model passes through
    one place, as [Ddet_replay.Oracle] and [Ddet_replay.Replayer] hold
    one function per model on the replay side. *)

open Mvm

type t = {
  name : string;  (** the log's recorder name *)
  attach : (Log.entry -> unit) -> (Event.t -> unit) * (unit -> unit);
      (** [attach emit] starts one recording whose entries go to [emit]:
          it returns the event observer, called for every event in order,
          and the end-of-run hook, called once after the run *)
}

(** Perfect determinism: the complete thread interleaving ([Sched] per
    step) plus every input value. Replay is a single deterministic
    re-execution — the highest-overhead, highest-utility corner of
    Fig. 1. *)
val perfect : t

(** Value determinism (iDNA-style): per thread, every value observed by
    shared-memory reads and message receives ([Read_val], aligned on the
    reading site), plus inputs. No cross-thread ordering is recorded: each
    thread's projection replays faithfully, but causality across CPUs must
    be reconstructed. *)
val value : t

(** Output determinism (ODR's lightest scheme): only the observable
    outputs. Replay infers schedule and inputs post factum — cheap at
    production time, expensive (and fidelity-lossy) at debug time. *)
val output : t

(** Failure determinism (ESD-style): nothing at run time; the log is the
    failure descriptor {!record} extracts from the judged run. Replay is
    pure execution synthesis. *)
val failure : t

(** Sync schedule (ODR's heavier scheme): inputs, outputs and the order of
    synchronisation operations (locks, sends, receives, spawns), but not
    the interleaving of plain shared-memory accesses — the outcomes of
    data races are inferred at replay time. *)
val sync : t

(** [rcse ?flight selector] is root-cause-driven selective recording
    (RCSE, §3.1), named ["rcse:" ^ selector.name]. The selector decides
    per event whether recording runs at high fidelity. In a high-fidelity
    window the recorder logs what a perfect-determinism recorder would —
    schedule points ([Cp_sched]) and input data ([Cp_input]) — plus the
    outputs produced there; in a low-fidelity window it logs nothing.
    Fidelity transitions leave zero-cost [Mark] entries so experiments can
    audit dial-up/dial-down behaviour. With a code-based selector
    (control-plane functions high, data-plane low) this is the
    configuration the paper evaluates in Fig. 2; data-based (invariant)
    and combined (trigger) selectors come from [Ddet_analysis].

    [flight] enables a flight-recorder ring of the given capacity: while
    fidelity is low the recorder keeps the would-be input and output
    entries of the most recent events in a bounded in-memory ring, and a
    dial-up flushes the ring into the log — windowed selections otherwise
    lose the moments leading up to the trigger, which is where the root
    cause usually lives. At the end of the run a [Flight_note] counts the
    events that passed through the ring; the cost model prices that
    residency with its [flight_tax].

    The selector is stateful, so a recorder built here records one run. *)
val rcse : ?flight:int -> Fidelity_level.selector -> t

(** [record ?govern ?monitor ?run recorder labeled ~spec ~world] runs the
    program under [world] with [recorder] attached, judges the run with
    [spec], and assembles the log. This is "production time" in the
    paper's sense: the world is typically {!Mvm.World.random}.

    The run's monitors are, in order: [govern]'s, so its step clock and
    overhead pressure are current when an entry reaches its admission
    gate; [monitor] (e.g. {!Causal.monitor}), which sees the full,
    ungated event stream; then the recorder's. With [govern], every entry
    the recorder emits passes {!Governor.admit}, and degraded windows
    drop entries. Each ladder transition writes its [Govern] entry into
    the log at the step where it happens, so nothing is left to drain
    after the run. The failure descriptor of the judged run goes last,
    after the recorder's end-of-run hook and past the gate: the governor
    can never suppress the failure itself. Under an installed tracer the
    log's entries are tallied per ladder tier ({!Governor.tier}) into the
    [record.entries.sched], [.value], [.sync] and [.book] counters.

    [run] is the interpreter the run goes through, [Interp.run] by
    default; a test substitutes its reference walker here to compare log
    bytes. *)
val record :
  ?govern:Governor.t ->
  ?monitor:(Event.t -> unit) ->
  ?run:(monitors:(Event.t -> unit) list -> Label.labeled -> World.t -> Interp.result) ->
  t ->
  Label.labeled ->
  spec:Spec.t ->
  world:World.t ->
  Interp.result * Log.t
