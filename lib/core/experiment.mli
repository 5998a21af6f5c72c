(** One-call drivers for every evaluation artifact in the paper. Each
    returns typed rows; the bench harness renders them.

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
      inference budget (the §3.2 efficiency discussion).
    - {!flight_sweep} — the flight-recorder ring capacity vs. fidelity.
    - {!race_detectors} — the sampling race detector vs. a precise
      happens-before detector. *)

open Ddet_metrics

type row = {
  app : string;
  seed : int;  (** production seed of the original failing run *)
  assessment : Utility.assessment;  (** of an ensemble: its replays' means *)
}

(** [find_seed (app, cause)] is the first production seed of [app] whose
    failure the catalog attributes (to [cause] alone, when given), and its
    run: the original execution of each experiment. *)
val find_seed : Ddet_apps.App.t * string option -> int * Mvm.Interp.result

(** The apps × {!Model.fig1_sequence}, app-major in the order adder,
    bufover, msg_server, miniht, cloudstore. *)
val fig1 : unit -> row list

(** Value, failure and rcse-code on the miniht migration race, each an
    ensemble of [replays] (default 5). *)
val fig2 : ?replays:int -> unit -> row list

(** One recorded run and its replay ([None]: nothing reproduced). *)
type replayed = {
  row : row;
  original : Mvm.Interp.result;
  replay : Mvm.Interp.result option;
}

(** The adder's first failing run, recorded and replayed under output
    determinism. *)
val sec2_adder : unit -> replayed

type drop = {
  drop_seed : int;  (** the original run: the buffer race alone *)
  dropped : int;  (** its [sent] output minus its [delivered] output *)
  tally : (string list option * int) list;
      (** the causes each of 10 failure-determinism syntheses exhibits
          ([None]: not reproduced) and how many syntheses did, by count
          (most first), then by causes *)
}

val sec2_drop : unit -> drop

(** The four RCSE selections on miniht, cloudstore, msg_server and
    bufover. *)
val ablation_rcse : unit -> row list

(** Failure determinism, then rcse-code, on the miniht race at inference
    budgets of 1, 2, 3, 5, 10 and 50 attempts: each row pairs the budget
    with the mean of 3 replays. *)
val budget_sweep : unit -> (int * row) list

(** Trigger-based RCSE on the msg_server race with no flight ring, then
    rings of 8, 32, 128 and 512 entries: fidelity climbs as the ring
    covers more of the run leading up to the trigger, and so does
    recording cost — the always-on tracing trade-off. *)
val flight_sweep : unit -> (int option * row) list

(** [work]: shared accesses probed (sampling) or vector-clock
    operations (happens-before). *)
type detection = { workload : string; detector : string; races : int; work : int }

(** The sampling race detector (the paper's low-overhead trigger) and a
    precise happens-before detector over one run each of a race-free
    lock-protected counter, msg_server and miniht. *)
val race_detectors : unit -> detection list

(** The race-free workload of ABL-RACE: two threads each increment a
    shared counter six times under one lock; [main] outputs it after both
    are done. Exposed so the bench's static section measures the same
    program. *)
val locked_counter : Mvm.Label.labeled

(** The schedule-only lost-update workload of the ABL-SEARCH comparison:
    two threads each increment a shared counter four times without locks.
    Exposed so the bench harness can time the engines on it. *)
val racy_counter : Mvm.Label.labeled

val racy_counter_spec : Mvm.Spec.t
