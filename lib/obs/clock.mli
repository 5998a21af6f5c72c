(** Monotonic time for the whole pipeline.

    Deadlines and tracer timestamps must never move with the wall clock:
    an NTP step or a laptop suspend would fire (or starve) every pending
    deadline and corrupt span durations. [now] reads CLOCK_MONOTONIC via
    the bechamel stub — nanoseconds from an arbitrary origin, strictly
    unaffected by clock adjustments.

    The source is swappable so tests can drive time by hand: a deadline
    regression test advances a fake counter instead of sleeping. *)

(** Current monotonic time in nanoseconds. Safe to call from any
    domain. *)
val now : unit -> int64

(** [elapsed_ns since] is [now () - since]. *)
val elapsed_ns : int64 -> int64

(** Seconds to nanoseconds, for deadline arithmetic. *)
val ns_of_s : float -> int64

(** Nanoseconds to seconds, for reporting. *)
val s_of_ns : int64 -> float

(** [with_source f body] runs [body] under source [f], restoring the
    real clock afterwards even on exceptions. *)
val with_source : (unit -> int64) -> (unit -> 'a) -> 'a
