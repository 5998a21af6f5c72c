(** The common shape of a workload application: a program, its I/O
    specification, its root-cause catalog, and the ground-truth
    control-plane function list used to validate automatic
    classification. *)

open Mvm

type t = {
  name : string;
  descr : string;
  labeled : Label.labeled;
  spec : Spec.t;
  catalog : Ddet_metrics.Root_cause.catalog;
  control_plane : string list;
      (** ground truth: function names that are control-plane (everything
          else is data-plane); empty when the app has no meaningful split *)
  nodes : Node.map option;
      (** the deployment topology: which node each thread root runs on.
          [None] for single-process apps — node-granular faults and
          sharded recording then do not apply *)
}

(** [lower_faults app plan] desugars any node-granular faults in [plan]
    against the app's node map ({!Mvm.Fault.lower}); plans without node
    faults pass through untouched.

    @raise Invalid_argument when the plan has node faults but the app has
    no node map. *)
val lower_faults : t -> Fault.plan -> Fault.plan

(** [production_run app ~seed] executes the app under a seeded random
    world — the model of an uncontrolled production environment — and
    judges it with its own specification. [faults] (default
    {!Fault.none}) additionally injects an adversarial fault plan: lossy
    channels, stalled threads, perturbed inputs — or node-granular faults
    (partitions, node crashes), lowered via {!lower_faults} first. *)
val production_run : ?faults:Fault.plan -> t -> seed:int -> Interp.result
