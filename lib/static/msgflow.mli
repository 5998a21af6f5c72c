(** The static channel-communication graph of a node-mapped program.

    Computed from the {!Mvm.Ast.program} and its {!Mvm.Node.map} alone —
    no runs: every [Send]/[Recv]/[Try_recv] site, the nodes whose
    threads may execute it (reachability through [Call] edges, both
    branches of conditionals), and the per-channel may-send → may-recv
    node-pair edges those placements imply. The edge set is a sound
    over-approximation of dynamic cross-node causality: every
    {!Ddet_record.Causal.edge} a recording can observe on channel [c]
    from node [a] to node [b] has a matching static edge, because the
    dynamic sender/receiver sites are among the static may-sites and
    their thread's node is among the site's may-nodes. The converse does
    not hold — a static edge may never materialise — which is exactly
    what makes "no static path to a survivor" a proof that a lost node's
    channel never influenced the surviving evidence. *)

open Mvm

type kind = Send | Recv | Try_recv

(** A communication site. [nodes] is every node whose threads can reach
    the site (sorted); empty for dead code no thread root reaches. *)
type site = {
  sid : int;
  fname : string;
  chan : string;
  kind : kind;
  nodes : string list;
}

(** One may-flow: some thread on [from_node] may send on [chan] and some
    thread on [to_node] may receive it. *)
type edge = { chan : string; from_node : string; to_node : string }

type t

(** [analyze ~map labeled] builds the graph.

    @raise Invalid_argument when a thread root has no node assignment. *)
val analyze : map:Node.map -> Label.labeled -> t

(** All communication sites, sorted by (channel, sid). *)
val sites : t -> site list

(** Channel names in use, sorted. *)
val channels : t -> string list

(** May-send sites of a channel. *)
val senders : t -> string -> site list

(** May-receive sites of a channel ([Recv] and [Try_recv]). *)
val receivers : t -> string -> site list

(** The edges whose endpoints differ — the cross-node over-approximation
    the soundness law quantifies over. *)
val cross_edges : t -> edge list

(** [has_edge t ~chan ~from_node ~to_node]: the triple is among the
    (channel, sender-node, receiver-node) edges, same-node pairs
    included. *)
val has_edge : t -> chan:string -> from_node:string -> to_node:string -> bool

(** [reaches t a b]: a nonempty path of cross-node edges leads from node
    [a] to node [b] (channel-agnostic transitive closure: a message into
    a node may influence anything it later sends). False for [a = b]
    unless [a] sits on a cycle. *)
val reaches : t -> string -> string -> bool

(** Channels with a site on the given node, sorted. *)
val node_channels : t -> string -> string list

(** [hot_channels t ~lost ~survivors] — channels on which a lost node
    may send a message that lands on a survivor or on a node that can
    still forward to one. These are the channels whose schedule and
    payload are worth searching when the lost evidence is reconstructed;
    everything else provably never influenced a survivor. *)
val hot_channels : t -> lost:string list -> survivors:string list -> string list

(** [precedes t ~fname a b]: within [fname]'s body, statement [a]
    structurally must-precede statement [b] — whenever both execute, every
    occurrence of [a] starts before [b] does, provided [b] is not inside
    a loop (guard with {!in_loop}; two sites sharing a loop are unordered
    across iterations). Sibling conditional branches are unordered. *)
val precedes : t -> fname:string -> int -> int -> bool

(** The site sits inside a [While] body. *)
val in_loop : t -> int -> bool
