(** Precise happens-before data-race detection with vector clocks
    (FastTrack-style), the expensive alternative to the sampling detector.

    The detector maintains one vector clock per thread, advanced on every
    operation and joined across synchronisation edges — spawn, lock
    release/acquire, message send/receive. An access races iff it is not
    ordered (by those edges) with a previous conflicting access to the same
    location.

    Unlike {!Race_detector}, this detector has no false positives (a
    lock-protected counter never reports) and no false negatives within a
    run — at a per-access cost proportional to the thread count, which is
    exactly why the paper's trigger proposal cites a *low-overhead*
    sampling detector for production use. The ABL-RACE bench measures the
    trade. *)

open Mvm

type t

val create : unit -> t

(** [observe t e] feeds one event in trace order; returns a report when
    [e] is a shared access unordered with a conflicting predecessor.
    At most one report per (location, site pair) is produced. *)
val observe : t -> Event.t -> Race_detector.report option

(** [reports t] is everything reported so far, oldest first. *)
val reports : t -> Race_detector.report list

(** [vc_operations t] counts vector-clock join/copy operations performed —
    the detector's work, for cost comparisons against sampling. *)
val vc_operations : t -> int
