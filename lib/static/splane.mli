(** Static control/data-plane classification (§3.1.1 without training
    runs).

    Propagates taint {e weights} — the largest number of input-derived
    bytes a value can carry — from [Input] statements through assignments,
    shared regions, message channels and calls to a fixpoint, then
    classifies each function by the heaviest weight crossing any of its
    event-emitting sites. Functions strictly above [threshold_bytes] are
    data-plane; ties and unknown functions fall back to Control, matching
    the dynamic {!Ddet_analysis.Plane.classify} tie-breaking. *)

open Mvm

type weights

(** 32 bytes: above every scalar (ints are 8 bytes) and below any real
    payload (the workloads move 128-256 byte blocks). *)
val default_threshold : int

val analyze : ?threshold_bytes:int -> Ast.program -> weights

(** Per-function site weight in bytes, sorted by name. *)
val weights : weights -> (string * int) list

val classify : ?threshold_bytes:int -> Ast.program -> Ddet_analysis.Plane.map
