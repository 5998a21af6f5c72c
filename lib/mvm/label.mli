(** Site labelling: assigns a unique id to every statement of a program and
    records, per site, which function it belongs to and what kind of
    statement it is.

    Site ids are the coordinate system shared by recorders (which log
    (tid, sid) schedule entries), replay oracles (which must recognise
    "thread t is about to execute site s"), plane classification (sites
    inherit their function's plane) and root-cause predicates. *)

type site = {
  fname : string;  (** enclosing function *)
  kind : string;  (** statement constructor, e.g. "store", "input" *)
}

type table

type labeled = {
  prog : Ast.program;  (** same program with consecutive site ids from 1 *)
  table : table;
}

(** [program p] labels [p].
    @raise Invalid_argument if [p.main] or a statically referenced function
    is undefined, or a region/input channel is used but not declared. *)
val program : Ast.program -> labeled

(** [site t sid] is the site record for [sid].
    @raise Not_found for an unknown id. *)
val site : table -> int -> site

(** [sites t] is all (sid, site) pairs in ascending id order. *)
val sites : table -> (int * site) list
