(** Search checkpoints: the persisted frontier of a replay search.

    A search engine's progress is tiny compared to the work it represents:
    the next decision-vector prefix (or restart attempt index), the
    counters and the best partial execution's identity. A checkpoint file
    captures exactly that, so a search killed mid-flight (machine crash,
    OOM kill, deadline) can be resumed with [--resume] and provably reach
    the same first-hit outcome as an uninterrupted run: engines judge
    candidates in attempt order, so restarting from the frontier replays
    the same decision sequence.

    Format [ddet-ckpt v2] is a {!Ddet_record.Log_io} framed-line file:
    one key per CRC'd line, closeness serialised as a hex float ([%h])
    for exact round-trips, closed by a framed [end N] line counting the
    lines before it. Files are written through {!Ddet_record.Store}
    atomically (temp file, fsync, rename), so a crash during a
    checkpoint write leaves the previous checkpoint intact — the resume
    point is always a real frontier, never a torn one. *)

(** Identity of the best partial execution seen so far. The heavyweight
    {!Mvm.Interp.result} is deliberately not serialised; instead the
    checkpoint stores enough to re-derive it deterministically on demand:
    the attempt index (restart engines re-seed from it) or the decision
    prefix (enumeration engines re-execute it). *)
type best = {
  b_closeness : float;
  b_attempt : int;
  b_prefix : int array option;
      (** [Some] for decision-vector engines; [None] when [b_attempt]
          itself is the rerun key (random restarts) *)
}

type t = {
  engine : string;  (** "restarts", "inputs", "dfs" or "scan" *)
  base_seed : int;  (** of the budget that produced this checkpoint *)
  attempt : int;  (** attempts fully judged so far *)
  total_steps : int;
  pruned : int;
  prefix : int array option;
      (** next decision-vector to try, for enumeration engines *)
  best : best option;
}

(** [write path t] serialises atomically through {!Ddet_record.Store.local}.
    @raise Sys_error on a storage failure. *)
val write : string -> t -> unit

(** [load path] parses and validates a checkpoint file. Damage (bad
    magic, CRC mismatch, unparsable or unknown line, missing or wrong
    [end] count) and an unreadable file are an [Error] naming the problem
    — a torn checkpoint must never silently resume from the wrong
    frontier. A [seen] line, the digest set a state-hash-pruned DFS wrote
    before pruning was retired, is an unknown line: no engine can finish
    that search the way it would have gone. *)
val load : string -> (t, string) result

(** A sink owns the checkpoint path and decides when ticks become writes.
    Engines call {!tick} once per judged attempt at iteration boundaries
    only — the frontier on disk is always a consistent "everything before
    attempt [n] is done" statement. *)
type sink

(** [sink ?every path] writes every [every]-th tick (default 32). *)
val sink : ?every:int -> string -> sink

(** [tick s frontier] counts one judged attempt; on every [every]-th call
    it evaluates [frontier] and writes the checkpoint. The thunk keeps
    frontier capture lazy — off-tick attempts pay one increment. The sink
    serialises into one reused buffer, and a tick whose payload is
    byte-identical to the last write is skipped entirely: the file
    already holds exactly that frontier. *)
val tick : sink -> (unit -> t) -> unit

(** [flush s frontier] forces a persist, bypassing the [every] throttle
    (engines call it when a search ends so the file reflects the final
    frontier); the identical-payload skip still applies. *)
val flush : sink -> (unit -> t) -> unit

val path : sink -> string
