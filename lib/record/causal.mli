(** Cross-node causality observed during a recording.

    When a recording is sharded into one log per node, the per-node entry
    order alone does not say how the nodes' histories interleave. The
    causal monitor watches the event stream (as an extra interpreter
    monitor, alongside the recorder's) and captures what the causal
    manifest needs:

    - the observed thread-to-node assignment ([Spawned] events carry the
      child's root function, which the {!Mvm.Node.map} places);
    - per-channel Lamport-style send/receive matching: the [k]-th send
      on a channel pairs with the [k]-th receive (the VM's channels are
      FIFO), and every pair whose endpoints sit on different nodes is a
      cross-node ordering {!edge};
    - the global interleaving of the nodes, run-length encoded, so a
      stitcher with {e all} shards can reconstruct the exact recorded
      order — and with missing shards can fall back to the surviving
      projection of it.

    A receive with no matched send (a fault-injected duplicate delivery
    on an empty queue) produces {e no} edge: the monitor never invents a
    cross-node ordering it did not observe. *)

open Mvm

(** One cross-node ordering constraint: the [send_seq]-th send on [chan]
    (1-based, by [send_node]) happened before the [recv_seq]-th receive
    (by [recv_node]). *)
type edge = {
  chan : string;
  send_node : string;
  send_seq : int;
  recv_node : string;
  recv_seq : int;
}

type t = {
  nodes : string list;  (** node order, as declared by the map *)
  tid_node : (int * string) list;  (** observed tid -> node, tid order *)
  edges : edge list;  (** cross-node pairs, in receive order *)
}

(** [node_of_tid t tid] is the node of [tid] (falls back to the first
    node for a tid the run never observed). *)
val node_of_tid : t -> int -> string

(** [monitor ~map ~main_fname ()] is [(on_event, finish)]: attach
    [on_event] to the recording run, call [finish] once it completes.

    @raise Invalid_argument if [main_fname] or a spawned root has no node
    assignment in [map]. *)
val monitor :
  map:Node.map -> main_fname:string -> unit -> (Event.t -> unit) * (unit -> t)
