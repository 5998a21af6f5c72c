(** Random program generator for property-based testing.

    Generates small terminating concurrent programs (bounded loops only)
    exercising shared scalars, arrays, locks, channels, inputs and outputs.
    The property tests use these to validate record/replay round trips on
    programs nobody hand-tuned. *)

(** Generation knobs. *)
type config = {
  n_threads : int;  (** worker threads spawned by main (>= 0) *)
  body_len : int;  (** statements per thread body *)
  n_scalars : int;  (** shared scalar regions named s0..s{n-1} *)
  arr_len : int;  (** length of the single shared array "arr" *)
  with_channels : bool;  (** allow send/try_recv statements *)
  with_locks : bool;  (** allow balanced lock/unlock pairs *)
}

val default : config

(** [generate cfg prng] is a fresh labelled program; the same [cfg] and PRNG
    state yield the same program. Generated programs always terminate
    (loops are counted), never block forever (receives are [Try_recv]) and
    never crash (indices are taken modulo the array length, divisions
    guarded). *)
val generate : config -> Prng.t -> Label.labeled

(** [generate_nodes cfg prng] is {!generate} plus a deterministic node
    map spreading the threads over three nodes named [n0..n2]: [main] on
    [n0], worker [k] on [n{(k+1) mod 3}]. Workers
    never spawn, so the map is always {!Node.static_tids}-safe. Used by
    the distributed property suites (static soundness laws, shard
    round-trips). *)
val generate_nodes : config -> Prng.t -> Label.labeled * Node.map
