(** Node maps: the distributed-system view of an MVM program.

    The MVM itself knows only threads and channels. A node map overlays
    the deployment topology an application models — which thread runs on
    which machine — so that faults can be expressed at node granularity
    (a partition separates machines, a node crash kills every thread on
    one) and recordings can be sharded into one per-node log, the way
    evidence actually survives a production incident.

    Threads are assigned to nodes through the functions they run:
    [assign] maps thread {e root} function names (the entry [main] and
    every [Spawn] target) to node names. Channel placement is derived
    statically: a channel belongs to every node whose threads can reach
    a [Send]/[Recv]/[Try_recv] on it (reachability through [Call]
    edges — a helper function's channel use counts against every node
    that calls it). A channel whose users span two sides of a partition
    is a {e cut} channel; deliveries on it fail for the window.

    Thread ids are assigned by the interpreter in spawn order, so the
    static tid map walks [main]'s body in program order (inlining calls)
    and numbers the [Spawn]s it meets. This is exact when only the root
    thread spawns, unconditionally — true of every shipped app — and the
    map refuses programs where spawned threads themselves spawn, rather
    than silently mis-assigning tids. *)

type map

(** [make ~nodes ~assign] builds a map. [nodes] fixes the node order
    (shards are written and reported in it); [assign] maps thread-root
    function names to node names.

    @raise Invalid_argument on an empty node list, a duplicate node, a
    node name with characters outside [A-Za-z0-9_-] (names become file
    name components of shard paths), or an assignment to an undeclared
    node. *)
val make : nodes:string list -> assign:(string * string) list -> map

(** The declared node names, in declaration (= shard) order. *)
val nodes : map -> string list

(** [node_of_fname map fname] is the node assigned to thread-root
    function [fname], if any. *)
val node_of_fname : map -> string -> string option

(** [members map prog node] is the tids of [node]'s threads, ascending.
    Tids follow [prog]'s spawn order: tid 0 runs [main], tid [k] the
    [k]-th [Spawn] target met walking [main] in program order (calls
    inlined, both branches of conditionals visited).

    @raise Invalid_argument when a function outside [main]'s call tree
    spawns (tid order would depend on the schedule), or when [main] or a
    spawned function has no node assignment. *)
val members : map -> Ast.program -> string -> int list

(** [fname_nodes map prog] maps every function reachable from a thread
    root to the sorted nodes whose threads may execute it (a helper
    called from two roots belongs to both roots' nodes). Functions no
    root reaches are absent. Sorted by function name.

    @raise Invalid_argument when a thread root has no node assignment. *)
val fname_nodes : map -> Ast.program -> (string * string list) list

(** [cut_channels map prog ~groups] is the channels a partition into
    [groups] severs: those whose user nodes land in two different groups.
    A node absent from every group is unaffected (still connected to
    all). Result sorted by channel name. *)
val cut_channels :
  map -> Ast.program -> groups:string list list -> string list
