(** Dynamic triggers (§3.1.3): runtime predicates over code and data that
    dial recording fidelity up, with a dial-down policy when they stay
    quiet.

    A trigger fires on events ("a race was just detected", "an invariant
    was just violated", "a request larger than the threshold arrived");
    {!selector} turns a set of triggers into an RCSE fidelity selector:
    every firing opens (or extends) a high-fidelity window of [window]
    steps; [sticky] keeps fidelity high forever after the first firing
    ("increase the determinism guarantees onward from the point of
    detection"). *)

open Mvm

type t = {
  name : string;
  fired : Event.t -> bool;
      (** may be stateful; called in event order, but under {!selector}
          only on the events where no earlier trigger of its list fired *)
}

(** [manual ~name f] wraps a predicate. *)
val manual : name:string -> (Event.t -> bool) -> t

(** [of_race_detector rd] fires whenever the sampling race detector reports
    a race at the current event. *)
val of_race_detector : Race_detector.t -> t

(** [of_sites sids] fires on every shared read/write at one of the given
    statement sites — how a static race candidate set dials fidelity up
    at suspect code without running a sampling detector. Stateless. *)
val of_sites : ?name:string -> int list -> t

(** [large_input ~chan ~threshold] is the paper's data-based example: fire
    when an input on [chan] is an integer above [threshold] or a string
    longer than [threshold]. *)
val large_input : chan:string -> threshold:int -> t

(** [selector ?sticky ?window triggers] builds the combined selector.
    Default [window] is 500 steps; default [sticky] is [false]. On each
    event the triggers are asked in list order up to the first that fires:
    the ones after it do not see that event, so a stateful trigger that
    must see every event (a race detector) goes first. *)
val selector :
  ?sticky:bool -> ?window:int -> t list -> Ddet_record.Fidelity_level.selector
