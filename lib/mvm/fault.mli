(** Fault-injection plans: deterministic adversarial environments.

    A {!plan} describes an unreliable production machine — lossy and
    duplicating message channels, threads that stall or die, perturbed
    inputs — and {!inject} turns any {!World.t} into the same world run
    under that adversity. Every decision is a pure hash of
    [(plan.seed, fault kind, step, tid, sid, chan)], so an injected world
    stays exactly as deterministic as the world it wraps: the same plan on
    the same world reproduces the same faulted run, which is what lets a
    replayer re-create the adversarial environment from the plan recorded
    in the log.

    Fault semantics are defined against the interpreter's delivery
    attempts (the [on_try_recv] hook), not against the message queues
    themselves:

    - [Drop p] — each delivery attempt on the channel fails with
      probability [p]. A queued message is not destroyed; it is simply not
      delivered by that attempt, which models a lost packet that the
      sender's retransmission (or a later poll) can still get through.
      Blocking receives on a non-empty queue are served directly by the
      VM and are not attempts, so drops starve polling code — exactly the
      code retry loops are for.
    - [Duplicate p] — with probability [p] an attempt yields a copy of
      the last message delivered on that channel (a retransmitted packet
      arriving in place of the next one). Before any delivery there is
      nothing to duplicate and the attempt proceeds normally. A duplicate
      can also wake a blocking receive on an empty queue.
    - [Delay] — all delivery attempts on the channel fail within the step
      window: a link outage.
    - [Stall] — the thread is descheduled for the step window; [Crash]
      deschedules it forever from [at_step] on. When a stalled or crashed
      thread is the only runnable candidate it runs anyway — the plan
      degrades the schedule but never wedges the VM; a genuine deadlock
      must come from the program.
    - [Perturb p] — with probability [p] an input consumes a
      hash-selected domain value instead of the world's choice.

    {b Node-granular faults.} Programs with a {!Node.map} can express
    faults against the deployment topology: [Partition] (deliveries on
    any channel whose users span two groups fail for the window),
    [Node_crash] (every thread of the node dies at a step) and
    [Node_restart] (every thread of the node stalls for a window — the
    process is down but restarts with its memory intact). These are
    {e sugar}: {!lower} desugars them into the [Delay]/[Crash]/[Stall]
    primitives above, deterministically, and the lowered plan is what a
    recorder stamps into the log — so replay re-creates a partitioned
    run with no node knowledge at all, and node faults add no new
    nondeterminism beyond the primitives they expand to. {!inject}
    refuses an un-lowered plan rather than guessing a topology. *)

type chan_action =
  | Drop of float  (** each delivery attempt fails with this probability *)
  | Duplicate of float
      (** each delivery attempt re-delivers the last message with this
          probability *)
  | Delay of { from_step : int; until_step : int }
      (** no deliveries inside [\[from_step, until_step)] *)

type fault =
  | Chan of { chan : string; action : chan_action }
  | Stall of { tid : int; from_step : int; until_step : int }
      (** thread descheduled inside [\[from_step, until_step)] *)
  | Crash of { tid : int; at_step : int }
      (** thread descheduled from [at_step] on *)
  | Perturb of { chan : string; prob : float }
      (** input channel delivers a hash-chosen domain value with this
          probability *)
  | Partition of { groups : string list list; from_step : int; until_step : int }
      (** cross-group deliveries fail inside [\[from_step, until_step)];
          nodes absent from every group are unaffected *)
  | Node_crash of { node : string; at_step : int }
      (** every thread of the node descheduled from [at_step] on *)
  | Node_restart of { node : string; from_step : int; until_step : int }
      (** the node is down for the window; its threads resume with state
          intact *)

type plan = { seed : int; faults : fault list }

(** The empty plan: [inject none] is the identity. *)
val none : plan

val make : ?seed:int -> fault list -> plan
val is_empty : plan -> bool

(** Constructors for the common cases (probabilities default to 0.1). *)

val drop : ?prob:float -> string -> fault
val duplicate : ?prob:float -> string -> fault
val delay : chan:string -> from_step:int -> until_step:int -> fault
val stall : tid:int -> from_step:int -> until_step:int -> fault
val crash : tid:int -> at_step:int -> fault
val perturb : ?prob:float -> string -> fault
val partition : groups:string list list -> from_step:int -> until_step:int -> fault
val node_crash : node:string -> at_step:int -> fault
val node_restart : node:string -> from_step:int -> until_step:int -> fault

(** [has_node_faults plan] — does the plan involve the node-granular
    constructors, which need {!lower}? *)
val has_node_faults : plan -> bool

(** [lower ~map ~prog plan] desugars every node-granular fault into the
    thread/channel primitives it stands for, against [prog]'s topology:
    [Partition] becomes a [Delay] on each {!Node.cut_channels} channel,
    [Node_crash] a [Crash] of each {!Node.members} tid, [Node_restart] a
    [Stall] likewise. Primitive faults pass through unchanged, in order.
    Deterministic: the same (plan, map, program) always lowers to the
    same plan, which is what makes the lowered plan a faithful stand-in
    for the node plan inside a recorded log.

    @raise Invalid_argument when the map cannot place a thread (see
    {!Node.static_tids}). *)
val lower : map:Node.map -> prog:Ast.program -> plan -> plan

(** [inject plan w] wraps [w] so it runs under the plan's adversity.
    [inject none w == w]. Only [Duplicate] makes the wrapper's
    [on_try_recv] answer [Force_value], so a non-empty plan keeps the
    {!World.forcing} promise [Never] exactly when [w] declares it and the
    plan has no [Duplicate] clause; otherwise the injected world declares
    [Anything] (the plan's step-dependent misses would also break a
    wrapped [Own_steps] promise).

    @raise Invalid_argument when [plan] still contains node-granular
    faults — {!lower} it first; injection has no topology to interpret
    them against. *)
val inject : plan -> World.t -> World.t

(** [to_string plan] renders the compact comma-separated syntax accepted
    by {!of_string}, e.g.
    ["seed=7,drop:ack_0:0.25,dup:repl:0.1,delay:resp_0:100-400,stall:2:50-90,crash:1:500,perturb:net:0.5"]
    — node clauses render as ["partition:a+b|c:100-400"],
    ["nodecrash:primary:500"] and ["noderestart:p1:100-300"].
    [of_string (to_string p) = Ok p]. *)
val to_string : plan -> string

(** [of_string s] parses the syntax above. Errors name the offending
    clause. *)
val of_string : string -> (plan, string) result
