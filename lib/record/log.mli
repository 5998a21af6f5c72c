(** Recording logs: what each determinism model persists at production time.

    Every determinism model is, operationally, a choice of which entry
    classes to emit. The log is also the unit the cost model prices, so a
    model's recording overhead falls out of the entries it actually wrote on
    a given workload rather than being asserted. *)

open Mvm

(** Whether a logged value was observed from shared memory or a message
    queue: value-determinism replay must force try_recv outcomes, so it
    needs to distinguish. *)
type read_kind = Mem | Msg

(** The object a synchronisation operation touched. *)
type sync_op =
  | Op_send of string  (** channel *)
  | Op_recv of string  (** channel *)
  | Op_spawn
  | Op_lock of string  (** mutex *)
  | Op_unlock of string

type entry =
  | Sched of { tid : int; sid : int }
      (** one full-interleaving schedule point (perfect determinism); priced
          like a CREW-style shared-access serialisation *)
  | Input of { tid : int; chan : string; value : Value.t }
      (** an input value, in per-thread consumption order *)
  | Read_val of { tid : int; sid : int; kind : read_kind; value : Value.t }
      (** a value observed by a shared read ([Mem]) or message receive
          ([Msg]) at site [sid] — value determinism / iDNA logs are
          per-instruction *)
  | Output of { chan : string; value : Value.t }
      (** an observable output (output determinism / ODR) *)
  | Sync of { tid : int; sid : int; op : sync_op }
      (** a synchronisation operation (send, recv, spawn, lock) with its
          object — the ODR-style sync-schedule scheme records per-object
          operation orders *)
  | Cp_sched of { tid : int; sid : int }
      (** a selectively recorded schedule point (RCSE high-fidelity window) *)
  | Cp_input of { tid : int; sid : int; chan : string; value : Value.t }
      (** a selectively recorded input at site [sid] (RCSE high-fidelity
          window) *)
  | Failure_desc of Failure.t
      (** the failure descriptor extracted post-mortem (ESD-style) *)
  | Flight_note of { buffered : int }
      (** accounting note: how many events passed through the in-memory
          flight-recorder ring during low-fidelity recording; priced at a
          small per-event tax (the ring is memory-only; entries reach
          stable storage only when a dial-up flushes them) *)
  | Mark of string
      (** fidelity dial-up/down markers and other zero-cost annotations *)
  | Govern of { step : int; level : int; reason : string }
      (** overhead-governor transition: from [step] onward the recording
          runs at degradation-ladder [level] (0 = full fidelity for this
          recorder, higher = coarser) because of [reason]. These entries
          delimit the degraded windows the fidelity metrics price as a
          DF floor. *)

type t = {
  recorder : string;  (** name of the recorder that produced this log *)
  entries : entry list;  (** recording order *)
  base_steps : int;  (** scheduler steps of the recorded run *)
  failure : Failure.t option;  (** failure observed in the recorded run *)
  faults : Fault.plan option;
      (** the fault plan the recorded run executed under, if any: replay
          must re-create the adversarial environment, so the plan ships
          with the log *)
}

(** [make ?faults ~recorder ~entries ~base_steps ~failure ()] assembles a
    log. *)
val make :
  ?faults:Fault.plan ->
  recorder:string ->
  entries:entry list ->
  base_steps:int ->
  failure:Failure.t option ->
  unit ->
  t

(** [sched_points t] is the [(tid, sid)] sequence of [Sched] entries. *)
val sched_points : t -> (int * int) list

(** [cp_sched_points t] is the [(tid, sid)] sequence of [Cp_sched] entries. *)
val cp_sched_points : t -> (int * int) list

(** [sync_entries t] is the [(tid, sid, op)] sequence of [Sync] entries. *)
val sync_entries : t -> (int * int * sync_op) list

(** [inputs_for t tid] is the input values consumed by thread [tid], in
    order (from [Input] entries). *)
val inputs_for : t -> int -> Value.t list

(** [cp_inputs_for t tid] is the [(sid, value)] sequence of [Cp_input]
    entries for thread [tid]. *)
val cp_inputs_for : t -> int -> (int * Value.t) list

(** [reads_for t tid] is the logged read/receive values of thread [tid],
    each tagged with its site and {!read_kind}. *)
val reads_for : t -> int -> (int * read_kind * Value.t) list

(** [outputs t] is the per-channel logged output sequences, sorted by
    channel name. *)
val outputs : t -> (string * Value.t list) list

(** [recorded_failure t] is the [Failure_desc] entry if present, else the
    log's [failure] field. *)
val recorded_failure : t -> Failure.t option

(** [governed_windows t] is the degraded windows the governor marked, as
    [(start_step, end_step, level)] with [level > 0], each closed by the
    next {!entry.Govern} transition or the end of the run. *)
val governed_windows : t -> (int * int * int) list

(** [governed t] — the governor degraded fidelity at least once. *)
val governed : t -> bool

(** [entry_count t] is the number of entries (excluding [Mark]s). *)
val entry_count : t -> int

(** [payload_bytes t] is the total logged value bytes across entries. *)
val payload_bytes : t -> int

val pp : Format.formatter -> t -> unit
