(** An MVM program linter with site-accurate diagnostics.

    Rules (severity in brackets):
    - [double-lock] — relocking a mutex already held on every path is a
      guaranteed interpreter crash [Error]; held only on some path
      [Warning].
    - [unlock-not-held] — unlocking a mutex held on no path [Error]; held
      only on some path [Warning].
    - [lock-imbalance] — a function exit (fallthrough or [return]) still
      holding locks it acquired [Error].
    - [branch-locks] — [if] branches exit with different held-lock sets
      [Warning].
    - [loop-locks] — a loop body's net lock effect is not empty, so the
      second iteration relocks or over-unlocks [Error].
    - [atomic-blocking] — [recv]/[lock]/[spawn]/[call]/[return] inside
      [atomic], which the interpreter forbids (crash) [Error].
    - [unreachable] — statements after [return]/[fail] in a block
      [Warning].
    - [undeclared-region] / [undeclared-function] / [undeclared-channel] /
      [region-kind] / [arity] — references that crash at runtime (or are
      rejected by {!Mvm.Label.program}) [Error].
    - [index-range] — constant array index out of declared bounds [Error].
    - [recv-never-sent] — a blocking [recv] on a channel no [send] ever
      fills is a guaranteed deadlock [Error]; a [try_recv] that can only
      miss [Warning]. *)

open Mvm

type severity = Error | Warning

type finding = {
  severity : severity;
  sid : int option;
  fname : string option;
  rule : string;
  msg : string;
}

val pp_finding : Format.formatter -> finding -> unit

(** Only the [Error]-severity findings (the CI gate and the [analyze]
    exit code ignore warnings). *)
val errors : finding list -> finding list

(** Findings in program order. *)
val run : Label.labeled -> finding list
