(** Shared call-graph and thread-reachability core for the static
    analyses.

    Resolves [Spawn] and [Call] statements of an {!Mvm.Ast.program} into
    per-thread-entry reachable function sets, extracts every shared-region
    access site, and computes two sound refinements used by the lockset
    race analysis: thread-entry {e multiplicity} (can two instances of the
    same entry run at once?) and the {e prologue} of [main] (sites that
    execute before any other thread can exist). *)

open Mvm

module SS : Set.S with type elt = string

(** [Single] means at most one live thread instance runs this entry;
    [Many] is the sound default. *)
type multiplicity = Single | Many

type entry = { entry : string; mult : multiplicity }

(** Static array-index abstraction: distinct constant indices never alias. *)
type idx = No_index | Const_idx of int | Var_idx

(** A shared-region access site (one statement may contain several). *)
type access = {
  sid : int;
  fname : string;
  region : string;
  index : idx;
  write : bool;
}

type t

(** [build labeled] analyses the program once; all queries are O(1)-ish
    lookups afterwards. *)
val build : Label.labeled -> t

(** The program the graph was built from. *)
val labeled : t -> Label.labeled

(** Thread entries: [main] plus every spawn target, each with its
    multiplicity. *)
val entries : t -> entry list

(** Functions reachable from [entry] through [Call] edges (including the
    entry itself; spawn targets are separate entries, not callees). *)
val reachable : t -> string -> SS.t

(** The entries whose thread can be executing [fname]. *)
val entries_reaching : t -> string -> entry list

(** Every shared-region read/write site in the program. [Arr_len] is not
    an access (the interpreter emits no Read event for it). *)
val accesses : t -> access list

val in_prologue : t -> int -> bool

(** [concurrent t a b] holds when sites [a] and [b] can execute in two
    distinct live threads: reachable from different entries, or from one
    multi-instance entry, and neither in [main]'s prologue. *)
val concurrent : t -> access -> access -> bool

val pp_access : Format.formatter -> access -> unit
