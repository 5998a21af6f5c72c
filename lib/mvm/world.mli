(** Worlds: the interpreter's only source of nondeterminism.

    A world answers exactly three questions — which runnable thread executes
    next, what value an input channel delivers, and (for value-determinism
    replay) what value a shared read observes. A (schedule, inputs) pair
    therefore fully determines a run, which makes every determinism model's
    record/replay contract precise: each model records some projection of
    the world's answers and reconstructs or infers the rest. *)

(** A scheduling candidate: a runnable thread together with the site it is
    about to execute. Oracles use the site to align partial schedule logs
    ("thread t may only run when it is at the next logged site"). *)
type cand = { tid : int; sid : int; fname : string }

type t = {
  name : string;
  pick_thread : step:int -> cand list -> int;
      (** choose the tid of the next thread to run; must be one of the
          candidates *)
  pick_input : step:int -> tid:int -> chan:string -> domain:Value.t list -> Value.t;
      (** choose the value an input statement consumes; normally from
          [domain] *)
  on_read : step:int -> tid:int -> sid:int -> region:string ->
    index:int option -> actual:Value.tagged -> Value.tagged;
      (** observe/override a shared read; identity everywhere except
          value-determinism replay oracles. [sid] is the reading site:
          per-instruction logs align on it *)
  on_recv : step:int -> tid:int -> sid:int -> chan:string ->
    actual:Value.tagged -> Value.tagged;
      (** observe/override a received message value (iDNA logs message data
          as memory reads; this hook gives replay the same power) *)
  on_try_recv : step:int -> tid:int -> sid:int -> chan:string ->
    try_recv_decision;
      (** decide a receive's outcome before the queue is consulted — MUST
          BE PURE (peek, not pop): the scheduler also calls it to decide
          whether a blocking [Recv] on an empty channel is runnable.
          [Default] keeps physical semantics; [Force_fail] makes a poll
          miss; [Force_value v] makes the receive succeed with [v] even on
          an empty queue (a non-empty head is consumed, since the forced
          success stands for a real message). Every successful receive is
          then routed through [on_recv], which is where a stateful oracle
          advances its log. Value- and sync-determinism replay need this:
          the success of a poll is part of a thread's observed values /
          per-object operation order. *)
  passive_try_recv : bool;
      (** [true] promises only what the interpreter relies on:
          [on_try_recv] never answers [Force_value]. A blocked [Recv] on
          an empty channel then becomes runnable only through a channel
          operation, so the interpreter may cache its scheduling-candidate
          set between steps (the search fast path) and skip the candidacy
          probe of blocked receives. The answer may still be stateful —
          a [Force_fail] or [Default] that depends on [step] or an oracle
          cursor — because it matters only when a receive executes, and
          every executing receive still asks. A world that can force a
          receive to succeed (value-determinism replay, a fault plan with
          [Duplicate]) must leave this [false]; the interpreter then asks
          it about every blocked receive at every step. *)
}

and try_recv_decision = Default | Force_fail | Force_value of Value.tagged

(** [random ~seed] resolves both schedule and inputs uniformly at random
    from a deterministic PRNG — the model of an uncontrolled production
    environment. *)
val random : seed:int -> t

(** [prioritized ~seed ~prefer] resolves schedule and inputs like
    {!random}, but biases thread picks toward candidates satisfying
    [prefer] (a hot candidate set wins 3 draws in 4; the fourth draw is
    uniform over all candidates, so every schedule stays reachable).
    Static race analysis uses this to point the replay search at suspect
    sites. *)
val prioritized : seed:int -> prefer:(cand -> bool) -> t

(** [round_robin ()] cycles threads in tid order and picks the first domain
    value for every input: a deterministic baseline useful in tests. *)
val round_robin : unit -> t
