(** Shared machinery of the search engines: decision odometers,
    instrumented worlds, and single-attempt executors, which {!Search}
    composes into its engines. An executor runs its attempt with
    {!Interp.run}, like every other run: the program is compiled once
    per domain ({!Interp.compile}), and nothing else carries over from
    one attempt to the next. *)

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

(** [exec_inputs ~budget ~prefix labeled] runs one input-odometer attempt;
    [budget] is the step cap. [wall] is forwarded to {!Interp.run}'s
    [cancel] (polled every 128 steps): deadline budgets use it to cut a
    long attempt mid-run. *)
val exec_inputs :
  ?wall:(unit -> string option) ->
  budget:int ->
  prefix:int array ->
  Label.labeled ->
  probe

(** [exec_schedule ~budget ~prefix labeled] runs one schedule-odometer
    attempt: decision [k] takes the [prefix.(k)]-th runnable thread, and
    every decision past the prefix the lowest thread id. A prefix digit
    that meets a smaller fan-out than it was generated against cuts the
    run short ([Early_clamped]). *)
val exec_schedule :
  ?wall:(unit -> string option) ->
  budget:int ->
  prefix:int array ->
  Label.labeled ->
  probe

type verdict =
  | Attempt of Interp.result * int list
      (** count and judge it; advance the odometer with these sizes *)
  | Skipped of { steps : int; sizes : int list }
      (** clamped: not an attempt; [steps] is the inference work spent
          before the run was cut short *)

(** [classify probe] rules whether a probe counts as an attempt. *)
val classify : probe -> verdict
