(** Deterministic hostile storage.

    Wraps a base {!Store.t} and injects faults from a reproducible
    plan: same plan + same operation sequence = same failures, short
    writes and latency spikes, independent of wall clock or scheduler.
    Probabilistic decisions are splitmix64 hashes of
    (seed, salt, operation index), the same construction as
    {!Mvm.Fault} uses for execution-level fault worlds. Operations are
    the writes, fsyncs and renames that reach the wrapper (a retried one
    counts again), numbered from 0 in order; removes are not counted. *)

type fault =
  | Disk_full of { after_bytes : int }
      (** the disk fills after this many payload bytes; the write that
          crosses the budget persists a prefix and fails with ENOSPC *)
  | Torn of { at_op : int; keep : float }
      (** operation [at_op], a write, persists only [keep] of its
          payload, then fails permanently *)
  | Fsync_fail of { at_op : int; transient : bool }
      (** operation [at_op], an fsync, fails *)
  | Rename_fail of { at_op : int; transient : bool }
      (** operation [at_op], a rename, fails *)
  | Flaky of { prob : float }
      (** each write fails with probability [prob] before
          persisting anything — the transient blips {!Retry} absorbs *)
  | Slow of { from_op : int; until_op : int; ms : float }
      (** operations in [from_op..until_op] each stall [ms] ms *)

type plan = { seed : int; faults : fault list }

val make : ?seed:int -> fault list -> plan

(** Clause grammar, comma-separated (the CLI's [--io-faults] syntax):
    [seed=7,enospc:4096,torn:3:0.5,fsyncfail:1:t,renamefail:2,flaky:0.1,slow:10-20:5] *)
val to_string : plan -> string

(** [of_string s] parses the clause grammar. An unknown clause name is a
    hard error whose message lists every valid clause form — a typo in an
    injection plan must never silently weaken the test. *)
val of_string : string -> (plan, string) result

type stats = {
  ops : int;  (** operations that reached the wrapper *)
  bytes_written : int;  (** payload bytes that reached the base store *)
  bytes_lost : int;  (** payload bytes discarded by short writes *)
  injected : int;  (** operations failed by injection *)
  injected_transient : int;  (** of those, transient ones *)
  stalled_ms : float;  (** total injected latency *)
  never_fired : fault list;
      (** the indexed clauses ([Torn], [Fsync_fail], [Rename_fail]) that
          have not failed their operation, in plan order: one whose index
          lands on an operation of another kind (a [torn] on an fsync, an
          [fsyncfail] on a write) never fires *)
}

(** [pp_stats] prints one line; it ends with [", never fired: "] and the
    clauses when [never_fired] is not empty. *)
val pp_stats : Format.formatter -> stats -> unit

(** [wrap plan base] is the hostile store plus a live stats reader. *)
val wrap : plan -> Store.t -> Store.t * (unit -> stats)
