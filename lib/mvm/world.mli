(** Worlds: the interpreter's only source of nondeterminism.

    A world answers exactly three questions — which runnable thread executes
    next, what value an input channel delivers, and (for value-determinism
    replay) what value a shared read observes. A (schedule, inputs) pair
    therefore fully determines a run, which makes every determinism model's
    record/replay contract precise: each model records some projection of
    the world's answers and reconstructs or infers the rest. *)

(** A scheduling candidate: a runnable thread together with the site it is
    about to execute. Oracles use the site to align partial schedule logs
    ("thread t may only run when it is at the next logged site").

    The record is private: a world reads and matches it anywhere and
    builds one only through {!cand}. The interpreter owns one candidate
    per thread and moves it to the thread's next site in place
    ({!set_site}), so a candidate is valid only during the [pick_thread]
    call that receives it: a world must not keep one past that call. It
    keeps what it needs ([tid], [sid]) instead. *)
type cand = private { tid : int; mutable sid : int; mutable fname : string }

(** [cand ~tid ~sid ~fname] is a fresh candidate. *)
val cand : tid:int -> sid:int -> fname:string -> cand

(** [set_site c ~sid ~fname] moves [c] to a new site (interpreter use). *)
val set_site : cand -> sid:int -> fname:string -> unit

type t = {
  pick_thread : step:int -> cand array -> int -> int;
      (** [pick_thread ~step cands n] chooses the next thread to run as an
          index in [\[0, n)]: the candidates are [cands.(0)] to
          [cands.(n - 1)], in thread (ascending tid) order, and [n >= 1].
          The array is the interpreter's own, rewritten in place between
          steps, and its slots from [n] on are not candidates: a world
          reads it only during this call, never writes it and never keeps
          it (see {!cand}). An index outside [\[0, n)] makes the run
          raise [Invalid_argument] *)
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
  forcing : forcing;
      (** the world's promise about when [on_try_recv] answers
          [Force_value]; the interpreter trusts it to decide how much of
          its scheduling-candidate set survives a step (see {!forcing}) *)
}

and try_recv_decision = Default | Force_fail | Force_value of Value.tagged

(** When [on_try_recv] may force a receive to succeed. A blocked [Recv]
    on an empty channel is a scheduling candidate only if its queue fills
    or the world forces it, so the promise bounds what can wake a blocked
    thread between two steps:

    - [Never]: [on_try_recv] never answers [Force_value]. A blocked
      receive wakes only through a channel operation. The answer may
      still be stateful (a [Force_fail] or [Default] that depends on
      [step] or an oracle cursor): it matters only when a receive
      executes, and every executing receive still asks. The random,
      prioritized and round-robin worlds, the search engines' worlds and
      the perfect, sync, RCSE and partial replay oracles declare it; so
      does a fault-injected world whose plan has no [Duplicate] clause
      and whose wrapped world declares it.
    - [Own_steps]: the answer for thread [t] depends only on state that
      [t]'s own steps change — never on [step], nor on what other
      threads do — so it can change only when [t] itself runs. The
      value-determinism oracle declares it: its answer for [t] peeks at
      [t]'s observation queue, and only [t]'s reads and receives
      advance that queue.
    - [Anything]: no promise; the world may force any receive at any
      step. A fault plan with [Duplicate] (a retransmitted copy of the
      last delivery on a channel can wake any receiver) declares it, as
      does a fault plan over a world that forces at all. *)
and forcing = Never | Own_steps | Anything

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
