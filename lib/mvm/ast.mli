(** Abstract syntax of the mini-VM's concurrent imperative language.

    The language is deliberately small but expressive enough to encode the
    paper's workloads: threads, shared scalars and arrays, locks, FIFO
    message channels, named input channels (the only source of data
    nondeterminism) and named output channels (the observable behaviour an
    I/O specification judges).

    {b Atomicity model.} The interpreter interleaves threads at statement
    granularity: expressions are pure and evaluate atomically within one
    step. Data races therefore occur between statements (e.g. a
    load-compute-store sequence), which is exactly the granularity the
    paper's bugs need. *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | And | Or
  | Concat
  | Min | Max

type unop = Not | Neg | Str_len

type expr =
  | Const of Value.t
  | Var of string  (** thread-local variable or parameter *)
  | Load of string * expr  (** shared array cell: region name, index *)
  | Load_scalar of string  (** shared scalar region *)
  | Arr_len of string  (** static length of a shared array region *)
  | Binop of binop * expr * expr
  | Unop of unop * expr

(** A statement labelled with a site id. The [Dsl] builds statements with
    [sid = 0]; [Label.program] renumbers every site uniquely and records a
    site table used by recorders, replay oracles and analyses. *)
type stmt = { sid : int; node : node }

and node =
  | Skip
  | Assign of string * expr
  | Store of string * expr * expr  (** region, index, value *)
  | Store_scalar of string * expr
  | If of expr * block * block
  | While of expr * block
  | Input of string * string  (** destination variable, input channel *)
  | Output of string * expr  (** output channel, value *)
  | Send of string * expr  (** FIFO message channel, value *)
  | Recv of string * string  (** destination variable, channel; blocks *)
  | Try_recv of string * string * string
      (** ok variable (bool), destination variable, channel; never blocks *)
  | Lock of string
  | Unlock of string
  | Spawn of string * expr list  (** function name, arguments *)
  | Call of string option * string * expr list
      (** optional destination variable, function name, arguments *)
  | Return of expr
  | Assert of expr * string  (** crash with the message when false *)
  | Fail of string  (** unconditional crash *)
  | Yield
  | Atomic of block
      (** execute the whole block in one scheduler step. Inside it, a
          [Recv] or [Lock] that would block crashes the run, as do
          [Spawn], [Call], [Return] and the 10,000th statement reached
          (each loop test and each nested [Atomic] counts) *)

and block = stmt list

type func = { fname : string; params : string list; body : block }

type region_decl =
  | Scalar_decl of string * Value.t  (** name, initial value *)
  | Array_decl of string * int * Value.t  (** name, length, fill value *)

type program = {
  name : string;
  funcs : func list;
  main : string;  (** entry function, run as thread 0 with no arguments *)
  regions : region_decl list;
  input_domains : (string * Value.t list) list;
      (** finite value domain per input channel; inference searches over
          these, so keep them small *)
}

(** [find_func p name] looks a function up by name. *)
val find_func : program -> string -> func option

(** [domain_of p chan] is the input domain declared for [chan], if any. *)
val domain_of : program -> string -> Value.t list option

(** [fold_stmts f acc p] folds [f] over every statement of every function,
    recursing into blocks. *)
val fold_stmts : ('acc -> string -> stmt -> 'acc) -> 'acc -> program -> 'acc

val pp_program : Format.formatter -> program -> unit

(** [node_kind n] is a short constructor name ("assign", "store", ...) used
    in site tables and reports. *)
val node_kind : node -> string
