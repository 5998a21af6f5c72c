(** Bounded retry with deterministic backoff.

    Transient storage errors ({!Store.error.transient}) persisted
    nothing, so the identical operation is re-issued up to 3 times,
    sleeping 1 ms before the first retry and doubling the sleep up to a
    50 ms cap; permanent errors surface immediately. The schedule is
    fixed, so a fault plan always yields the same attempt sequence. *)

type failure = {
  error : Store.error;  (** the error that ended the attempt sequence *)
  attempts : int;  (** attempts made, including the first *)
  gave_up : bool;  (** true: transient, but retry budget exhausted *)
}

val failure_to_string : failure -> string

(** [run f] re-runs [f] on transient errors. *)
val run : (unit -> ('a, Store.error) result) -> ('a, failure) result

(** The failure as a permanent store error ([transient = false]):
    downstream must not retry what Retry already gave up on. *)
val as_store_error : failure -> Store.error

(** [store base] wraps every fallible operation of [base] in {!run}.
    Errors that escape are always permanent. *)
val store : Store.t -> Store.t
