(** Monomorphic hash tables for the replay layer's per-event lookups.

    Oracle hooks run on every event and every scheduling candidate. The
    polymorphic [Hashtbl] would hash each key with [caml_hash] and
    compare it with [caml_compare]; these instances hash an int with a
    multiply-and-fold and compare with [Int.equal] or [String.equal]. *)

(** Tables keyed by tids, sids or {!pair}s. *)
module Int : Hashtbl.S with type key = int

(** Tables keyed by channel or lock names. *)
module Str : Hashtbl.S with type key = string

(** [pair tid sid] packs a (tid, sid) pair into one key, injectively for
    [0 <= tid < 2^30] and [0 <= sid < 2^31], which holds for every pair
    the interpreter produces (tids index its thread table, sids count the
    program's statements). A pair outside that range, which only a log
    can hold, packs to [-1]: no in-range pair does, so such an entry
    matches no event, exactly as the unpacked pair would not. *)
val pair : int -> int -> int
