(** Plain-text table rendering for experiment reports (bench output,
    EXPERIMENTS.md source material). *)

(** [table ~headers rows] renders an aligned ASCII table; every row must
    have the same arity as [headers]. *)
val table : headers:string list -> string list list -> string

(** [print_section title body] prints a titled block to stdout. *)
val print_section : string -> string -> unit
