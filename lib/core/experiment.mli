(** One-call drivers for every evaluation artifact in the paper, returning
    structured rows that the bench harness renders.

    - {!fig1} — the relaxation-trend chart (Fig. 1): runtime overhead vs.
      debugging utility for the chronological model sequence, across the
      application suite.
    - {!fig2} — the Hypertable case study (Fig. 2): recording overhead vs.
      debugging fidelity for value determinism, failure determinism and
      RCSE with control-plane selection, on the migration-race bug.
    - {!sec2_adder} — §2's output-determinism narrative: the replay of the
      2+2=5 failure that returns a correct-sum execution (DF 0).
    - {!sec2_drop} — §2's multi-root-cause narrative: failure-determinism
      replays of the message-drop failure, and how often they blame
      congestion instead of the racing buffer.
    - {!ablation_rcse} — the RCSE variants (§3.1.1-3.1.3) compared on the
      apps where each shines or misfires.
    - {!budget_sweep} — debugging efficiency as a function of the
      inference budget (the §3.2 efficiency discussion). *)

open Ddet_metrics

type row = {
  app : string;
  seed : int;  (** production seed of the original failing run *)
  assessment : Utility.assessment;
}

(** A fully rendered experiment: headline, table, commentary. *)
type rendered = { title : string; body : string }

val fig1 : ?config:Config.t -> ?replays:int -> unit -> row list
val render_fig1 : row list -> rendered

val fig2 : ?config:Config.t -> ?replays:int -> unit -> row list
val render_fig2 : row list -> rendered

val sec2_adder : ?config:Config.t -> unit -> rendered

val sec2_drop : ?config:Config.t -> ?replays:int -> unit -> rendered

val ablation_rcse : ?config:Config.t -> ?replays:int -> unit -> row list
val render_ablation : row list -> rendered

(** [budget_sweep ()] varies [max_attempts] for failure-determinism and
    RCSE inference on the miniht bug and reports DE/DU per budget. *)
val budget_sweep : ?config:Config.t -> unit -> rendered

(** [flight_sweep ()] varies the flight-recorder ring capacity for
    trigger-based RCSE on the msg_server race: fidelity climbs as the ring
    covers more of the run leading up to the trigger, and so does recording
    cost — the always-on tracing trade-off. *)
val flight_sweep : ?config:Config.t -> ?replays:int -> unit -> rendered

(** [race_detectors ()] compares the sampling race detector (the paper's
    low-overhead trigger) against a precise happens-before detector on a
    race-free lock-protected workload and on the racy applications:
    precision (false positives), coverage, and per-access work. *)
val race_detectors : ?config:Config.t -> unit -> rendered

(** The schedule-only lost-update workload of the ABL-SEARCH comparison:
    two threads each increment a shared counter four times without locks.
    Exposed so the bench harness can time the engines on it. *)
val racy_counter : Mvm.Label.labeled

val racy_counter_spec : Mvm.Spec.t

(** [run_all ()] renders every experiment in order (the bench default,
    which adds the timed ABL-SEARCH comparison). *)
val run_all : ?config:Config.t -> unit -> rendered list
