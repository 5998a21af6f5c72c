(** Root causes as checkable predicates.

    The paper defines a root cause as the negation of the predicate a fix
    would enforce (§3). Operationally we need the converse direction: given
    a (replayed) execution, decide which root cause produced its failure.
    Each application therefore registers a catalog: for one failure
    signature, the set of distinct root-cause predicates that can produce
    it. Debugging fidelity falls out of evaluating the catalog on original
    and replayed runs. *)

open Mvm

type t = {
  id : string;  (** stable identifier, e.g. "migration-commit-race" *)
  descr : string;  (** one-line developer-facing description *)
  holds : Interp.result -> bool;
      (** does this execution exhibit this root cause? evaluated over the
          trace of a completed run *)
}

(** A catalog: every known root cause for one application failure. *)
type catalog = {
  app : string;
  failure_sig : Failure.t -> bool;
      (** which failures this catalog explains (the "same failure"
          equivalence class) *)
  causes : t list;
}

(** [make ~id ~descr holds] builds a root-cause predicate. *)
val make : id:string -> descr:string -> (Interp.result -> bool) -> t

(** [observed catalog r] is the root causes of [r]'s failure that hold on
    [r] (empty when [r] has no matching failure). *)
val observed : catalog -> Interp.result -> t list

(** [primary catalog r] is the first observed cause, if any — the one a
    developer following the replay would find. Causes after it are not
    evaluated. *)
val primary : catalog -> Interp.result -> t option

(** [n_causes catalog] is the catalog size — the [n] in the paper's
    fidelity 1/n. *)
val n_causes : catalog -> int
