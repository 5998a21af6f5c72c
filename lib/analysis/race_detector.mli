(** Low-overhead sampling data-race detection (after DataCollider, Erickson
    et al., OSDI'10), the paper's example of a combined code/data trigger
    (§3.1.3): "low-overhead data race detection could be used to dial up
    recording fidelity when a race is detected".

    The detector watches the access stream; when two threads touch the same
    location within a short window, at least one access being a write, and
    the (seeded) sampler selects the pair, it reports a race. Sampling
    models the production-overhead constraint: a full happens-before
    detector would defeat the purpose.

    As the race trigger, the detector sees every shared access of an RCSE
    recording, so it keeps each region's last accesses in per-region
    slots — one for the scalar, a growable array indexed by array index —
    and finds a region's slots through a per-site {!Mvm.Site_memo}: an
    access whose site last touched the same (physically equal) region
    name costs an array read and a pointer comparison, with no key built
    and nothing hashed. The slots, the sampler's draws and the reports
    are those of a table keyed by [(region, index)]. *)

open Mvm

type config = {
  sample_rate : float;  (** probability a conflicting pair is reported *)
  window : int;  (** max steps between the two accesses *)
  seed : int;
}

val default_config : config

type report = {
  region : string;
  index : int option;
  sid_first : int;
  sid_second : int;
  tid_first : int;
  tid_second : int;
  step : int;  (** step of the second (detecting) access *)
}

type t

val create : config -> t

(** [observe t e] feeds one event; returns a report when a sampled race is
    detected at [e]. *)
val observe : t -> Event.t -> report option

(** [reports t] is everything reported so far, oldest first. *)
val reports : t -> report list

val pp_report : Format.formatter -> report -> unit
