(** The paper's closing open question (§5): "while debug determinism may be
    the sweet spot in the problem domain of debugging, it is unclear what
    the sweet spot is for other replay-amenable problem domains. In
    particular, what are the ideal determinism models for replay-based
    forensic analysis and fault tolerance?"

    This module measures two candidate answers on the existing models:

    - {b Forensic analysis} needs the exact external I/O history — who sent
      what, in what order. {!forensic_fidelity} scores a replay by whether
      it reproduces the original per-channel input *and* output sequences.
      Output determinism famously fails this: on the adder it replays the
      output 5 from forged inputs, so an audit would attribute the wrong
      request to the user.

    - {b Fault tolerance} needs a backup replica to reach the {e same
      state}, not to explain a failure. {!state_divergence} measures the
      fraction of shared state (scalars and array cells) whose final value
      differs between original and replay. A model is FT-adequate only at
      divergence 0 on every run — a much stronger bar than debug
      determinism, met only by the expensive end of the spectrum. *)

open Mvm

(** [forensic_fidelity ~original ~replay] is the fraction of I/O channels
    (inputs and outputs separately) whose full value sequence is
    reproduced; 1.0 means the audit trail is exact. *)
val forensic_fidelity : original:Interp.result -> replay:Interp.result -> float

(** [state_divergence ~regions ~original ~replay] is the fraction of
    declared shared cells whose final value differs (computed from the two
    traces' write histories). *)
val state_divergence :
  regions:Ast.region_decl list ->
  original:Interp.result ->
  replay:Interp.result ->
  float
