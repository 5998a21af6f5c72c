(** Causal stitching: merge surviving shards back into one log.

    The stitcher takes a loaded shard set ({!Ddet_record.Sharded_log})
    and rebuilds the best global log the surviving evidence supports. The
    manifest's run-length interleaving says how the nodes' entry streams
    wove together; the stitcher walks it, drawing each run from its
    node's queue — skipping runs whose node is lost, stopping a run early
    when a salvaged shard ran out — so the merged entry order is the
    {e surviving projection} of the recorded global order. Entries the
    manifest never accounted for (a damaged manifest, or none at all) are
    appended per node afterwards, and the merge is marked inexact.

    The merged log is honest about what it is:

    - [complete]: every shard intact and the manifest whole — the merge
      {e is} the original log, and normal full-fidelity replay applies;
    - otherwise partial evidence: the lost nodes' schedule and inputs are
      gone (they become search dimensions), and only the surviving
      cross-node edges still constrain the reconstruction.

    Stitching never invents order: an edge or run that cannot be resolved
    against surviving evidence is dropped and counted, not guessed. *)

open Ddet_record

type t = {
  log : Log.t;  (** merged surviving evidence, stitched order *)
  evidence : (string * Sharded_log.shard_status) list;
      (** per node, what the evidence was *)
  lost : string list;  (** nodes that contributed nothing *)
  complete : bool;
      (** the merge reconstructs the original log exactly: manifest whole
          and every shard intact *)
  order_exact : bool;
      (** the merged order is a faithful projection of the recorded
          global order (no unaccounted leftovers had to be appended) *)
  edges_enforced : Causal.edge list;
      (** cross-node edges with both endpoints surviving *)
  edges_dropped : Causal.edge list;
      (** edges that died with a lost endpoint — ordering information the
          evidence no longer supports *)
}

val stitch : Sharded_log.loaded -> t

val pp : Format.formatter -> t -> unit
