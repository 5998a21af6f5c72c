(** A per-site memo: one remembered answer per statement site, for
    selectors that decide an event from a name it carries (its function,
    region or channel).

    The interpreter hands every event of one site the same physical name
    string, so a slot keeps the name last seen at its site and the answer
    computed for it: a hit is one array read and one physical comparison
    ([==]). A miss — a site seen first, or a site seen under another name,
    as hand-built events may reuse a sid — runs the caller's lookup and
    refills the slot, so the answer is always the lookup's. Each memo
    belongs to one selector instance: nothing is shared across
    recordings or domains. *)

type 'a t

(** [create ()] is an empty memo. *)
val create : unit -> 'a t

(** [find t sid name lookup] is [lookup name], remembered for [sid].
    [lookup] must depend on [name] alone (it may create state on its first
    call for a name, as long as later calls return the same answer). A memo
    holds 256 slots; sites whose sids agree modulo 256 share one, which
    costs misses but never changes an answer. *)
val find : 'a t -> int -> string -> (string -> 'a) -> 'a
