(** Combinators for building mini-VM programs in OCaml.

    All statements are built with [sid = 0]; run the result through
    [Label.program] (or build via [program], which labels for you) before
    interpreting. *)

open Ast

(** {1 Expressions} *)

val i : int -> expr
val b : bool -> expr
val s : string -> expr

(** thread-local variable reference *)
val v : string -> expr

(** shared scalar load *)
val g : string -> expr

(** shared array load *)
val idx : string -> expr -> expr
val arr_len : string -> expr

val ( +: ) : expr -> expr -> expr
val ( -: ) : expr -> expr -> expr
val ( *: ) : expr -> expr -> expr
val ( /: ) : expr -> expr -> expr
val ( %: ) : expr -> expr -> expr
val ( =: ) : expr -> expr -> expr
val ( <>: ) : expr -> expr -> expr
val ( <: ) : expr -> expr -> expr
val ( <=: ) : expr -> expr -> expr
val ( >: ) : expr -> expr -> expr
val ( >=: ) : expr -> expr -> expr
val ( &&: ) : expr -> expr -> expr
val ( ||: ) : expr -> expr -> expr

(** string concatenation *)
val ( ^: ) : expr -> expr -> expr
val str_len : expr -> expr
val min_ : expr -> expr -> expr
val max_ : expr -> expr -> expr

(** {1 Statements} *)

val skip : stmt
val assign : string -> expr -> stmt
val store : string -> expr -> expr -> stmt
val store_g : string -> expr -> stmt
val if_ : expr -> block -> block -> stmt

(** [if_] with empty else *)
val when_ : expr -> block -> stmt
val while_ : expr -> block -> stmt

(** [for_ x lo hi body] iterates [x] from [lo] to [hi - 1]; sugar over
    [assign] + [while_], so it costs one scheduler step per condition check
    plus one per increment, like handwritten loops would. *)
val for_ : string -> expr -> expr -> block -> stmt

(** [input x chan] *)
val input : string -> string -> stmt
val output : string -> expr -> stmt
val send : string -> expr -> stmt

(** [recv x chan] *)
val recv : string -> string -> stmt

(** [try_recv ok x chan] *)
val try_recv : string -> string -> string -> stmt
val lock : string -> stmt
val unlock : string -> stmt
val spawn : string -> expr list -> stmt
val call : ?dest:string -> string -> expr list -> stmt
val return : expr -> stmt
val assert_ : expr -> string -> stmt
val fail : string -> stmt
val yield : stmt
val atomic : block -> stmt

(** {1 Declarations} *)

val func : string -> string list -> block -> func
val scalar : string -> Value.t -> region_decl
val array : string -> int -> Value.t -> region_decl

(** [program ~name ~regions ~inputs ~main funcs] assembles and labels a
    program (site ids assigned, site table built).
    @raise Invalid_argument when [main] or a spawned/called function is
    undefined, or a region/channel is referenced but not declared. *)
val program :
  name:string ->
  regions:region_decl list ->
  inputs:(string * Value.t list) list ->
  main:string ->
  func list ->
  Label.labeled
