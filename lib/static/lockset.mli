(** Eraser/RacerD-style static lockset race analysis (must-held locksets,
    interprocedural, path-meeting).

    A {e static race candidate} is a pair of shared-region access sites
    that (1) touch the same region with compatible indices, (2) include at
    least one write, (3) can execute in two distinct live threads
    ({!Callgraph.concurrent}), and (4) hold disjoint must-locksets.
    Locksets are under-approximated (intersection at joins and call
    contexts), so candidates over-approximate the races the dynamic
    happens-before detector can report: two sites sharing a must-held
    lock are always ordered by that lock's release->acquire edge. *)

module SS = Callgraph.SS

type candidate = {
  region : string;
  a : Callgraph.access;
  b : Callgraph.access;  (** [a.sid <= b.sid]; equal for self-races *)
  locks_a : string list;
  locks_b : string list;
}

type result

(** [analyze ?mhp graph] — when [mhp] is given, condition (3) uses the
    node-aware {!Mhp.concurrent} instead of {!Callgraph.concurrent},
    dropping pairs that deployment placement provably orders. Since
    [Mhp.concurrent ⊆ Callgraph.concurrent], the candidate set only
    shrinks. *)
val analyze : ?mhp:Mhp.t -> Callgraph.t -> result

(** Candidates sorted by (region, sid pair), deduplicated per pair. *)
val candidates : result -> candidate list

(** The sorted, deduplicated sids involved in any candidate — the suspect
    sites handed to the RCSE trigger and the search priority hint. *)
val suspect_sids : result -> int list

val pp_candidate : Format.formatter -> candidate -> unit
