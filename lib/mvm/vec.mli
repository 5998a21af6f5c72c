(** Growable array (OCaml 5.1 has no [Dynarray]; this is the small subset the
    interpreter and trace need).

    The elements live in chunks of at most 256 slots, the largest block the
    minor heap allocates, hung off a small spine. A vector therefore never
    holds its fresh elements behind a major-heap array: pushing does not
    force minor collections, and a vector that dies young is collected
    without promoting its elements. [get] stays O(1). *)

type 'a t

(** [create ()] is an empty vector. No memory is committed before the
    first push. *)
val create : unit -> 'a t

(** [length v] is the number of elements currently stored. *)
val length : 'a t -> int

(** [push v x] appends [x] at the end, growing the backing store as needed. *)
val push : 'a t -> 'a -> unit

(** [get v i] is the [i]-th element.
    @raise Invalid_argument if [i] is out of bounds. *)
val get : 'a t -> int -> 'a

(** [clear v] empties the vector without releasing its chunks, which the
    next fill reuses. Elements are not overwritten until pushed over. *)
val clear : 'a t -> unit

(** [iter f v] applies [f] to every element in insertion order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [fold f acc v] folds [f] over elements in insertion order. *)
val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [to_list v] is all elements in insertion order. *)
val to_list : 'a t -> 'a list

(** [of_list xs] is a vector holding [xs] in order. *)
val of_list : 'a list -> 'a t

(** [filter p v] is the list of elements satisfying [p], in order. *)
val filter : ('a -> bool) -> 'a t -> 'a list

(** [exists p v] is [true] iff some element satisfies [p]. *)
val exists : ('a -> bool) -> 'a t -> bool

(** [count p v] is the number of elements satisfying [p]. *)
val count : ('a -> bool) -> 'a t -> int
