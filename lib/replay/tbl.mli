(** Monomorphic hash tables for the replay layer's per-event lookups.

    Oracle hooks run on every event and every scheduling candidate. The
    polymorphic [Hashtbl] would hash each key with [caml_hash] and
    compare it with [caml_compare]; these instances hash an int with a
    multiply-and-fold and compare with [Int.equal] or [String.equal]. *)

(** Tables keyed by tids or sids. *)
module Int : Hashtbl.S with type key = int

(** Tables keyed by channel or lock names. *)
module Str : Hashtbl.S with type key = string
