(** Deterministic pseudo-random number generator (splitmix64).

    Replay experiments demand bit-for-bit reproducible randomness that does
    not depend on global [Stdlib.Random] state, so every random world and
    every search strategy owns one of these. *)

type t

(** [create seed] is a fresh generator; equal seeds yield equal streams. *)
val create : int -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [int t bound] is uniform in [0, bound); [bound] must be positive.
    @raise Invalid_argument on non-positive [bound]. *)
val int : t -> int -> int

(** [bool t] is a uniform boolean. *)
val bool : t -> bool

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [pick t xs] is a uniformly chosen element of [xs].
    @raise Invalid_argument on the empty list. *)
val pick : t -> 'a list -> 'a

(** [coin seed coords] is a stateless draw, uniform in [0, 1): the
    splitmix64 finaliser folded over [seed] and then each of [coords] in
    order. Equal arguments give equal coins with no generator to thread
    through, which fault injection needs: a decision may be consulted
    twice within one step and must come out the same both times. *)
val coin : int -> int list -> float

(** [coin_bits5 seed a b c d e] is the 53-bit integer behind
    [coin seed [a; b; c; d; e]] (the coin is it divided by 2{^53}). It
    allocates nothing: fault injection draws one per delivery attempt on
    a faulted channel. *)
val coin_bits5 : int -> int -> int -> int -> int -> int -> int
