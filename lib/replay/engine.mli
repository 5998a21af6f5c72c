(** Shared machinery of the search engines: decision odometers,
    instrumented worlds, and single-attempt executors, which {!Search}
    composes into its engines. Every executor runs on a caller-supplied
    arena ({!ctx}); there is no arena-less path. *)

open Mvm

(** [advance prefix sizes] steps the decision odometer: bump the
    shallowest digit with room, reset everything below it, [None] when
    the space is exhausted. [sizes] are the digit fan-outs discovered by
    running [prefix] (shallowest first); digits beyond [sizes] are
    dropped. Varying the earliest decisions first matters for schedule
    search — races live in the early interleaving. *)
val advance : int array -> int list -> int array option

type early =
  | Ran  (** the attempt ran to its natural end *)
  | Early_clamped  (** cut at a prefix digit whose fan-out shrank *)

type probe = {
  result : Interp.result;
  sizes : int list;
      (** discovered digit fan-outs, shallowest first, already truncated
          for the clamped case so {!advance} skips the dead branch *)
  early : early;
}

(** Per-search execution context — the arena of the search hot path. It
    holds the program compiled once ({!Interp.compile}) and a reusable
    interpreter exec state, both reused across every attempt executed
    with it: attempts stop paying compile cost. Every executor below
    requires one; a ctx never changes what an attempt does. A ctx must
    not be shared between concurrent attempts; each pool worker domain
    builds its own with {!make_ctx}. *)
type ctx

(** [make_ctx labeled] compiles the program and allocates its arena. *)
val make_ctx : Label.labeled -> ctx

(** [run_attempt ~max_steps ~abort ctx world] executes one attempt on
    [ctx]'s compiled program and arena. The raw entry point for engines
    that build their own worlds — the odometer engines use {!exec_inputs}
    and {!exec_schedule} instead. *)
val run_attempt :
  max_steps:int ->
  abort:(Event.t -> string option) ->
  ?cancel:(unit -> string option) ->
  ctx ->
  World.t ->
  Interp.result

(** [exec_inputs ~budget ~prefix ctx] runs one input-odometer attempt;
    [budget] is the step cap. [wall] is forwarded to {!Interp.run}'s
    [cancel] (polled every 128 steps): deadline budgets use it to cut a
    long attempt mid-run. *)
val exec_inputs :
  ?wall:(unit -> string option) ->
  budget:int ->
  prefix:int array ->
  ctx ->
  probe

(** [exec_schedule ~budget ~prefix ctx] runs one schedule-odometer
    attempt: decision [k] takes the [prefix.(k)]-th runnable thread, and
    every decision past the prefix the lowest thread id. A prefix digit
    that meets a smaller fan-out than it was generated against cuts the
    run short ([Early_clamped]). *)
val exec_schedule :
  ?wall:(unit -> string option) ->
  budget:int ->
  prefix:int array ->
  ctx ->
  probe

type verdict =
  | Attempt of Interp.result * int list
      (** count and judge it; advance the odometer with these sizes *)
  | Skipped of { steps : int; sizes : int list }
      (** clamped: not an attempt; [steps] is the inference work spent
          before the run was cut short *)

(** [classify probe] rules whether a probe counts as an attempt. *)
val classify : probe -> verdict
