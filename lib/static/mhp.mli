(** Node-aware may-happen-in-parallel: {!Callgraph.concurrent} refined
    with deployment placement.

    Two refinements, both sound with respect to the dynamic
    happens-before detector (a pair ruled out here is ordered in every
    execution, so no dynamic race report can name it):

    - {e single-threaded nodes}: sites that can only execute on a node
      hosting exactly one [Single]-multiplicity thread entry share a
      thread and never overlap;
    - {e FIFO send→recv ordering}: a channel with exactly one
      once-executed send site and one once-executed blocking receive
      site (different threads, no [try_recv] competitors) carries
      exactly one message, so everything sequenced at/before the send
      happens-before everything sequenced at/after the receive.

    By construction [concurrent t a b] implies
    [Callgraph.concurrent g a b] — the subset law the property suite
    checks. Feed the result to {!Lockset.analyze} via its [?mhp]
    argument to tighten race candidates, and through them the per-node
    suspect sites of {!Static_report}. *)

open Mvm

type t

(** @raise Invalid_argument when a thread root has no node assignment. *)
val analyze : map:Node.map -> Callgraph.t -> t

(** The placement-refined may-happen-in-parallel relation. *)
val concurrent : t -> Callgraph.access -> Callgraph.access -> bool

(** The channel orderings found: (chan, (send fname, sid),
    (recv fname, sid)). *)
val fifos : t -> (string * (string * int) * (string * int)) list
