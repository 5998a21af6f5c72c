(** Recording fidelity levels: the dial RCSE turns (§3.1).

    [High] means "record like a perfect-determinism recorder here" —
    schedule points and input data. [Low] means record nothing. Selectors
    (code-based, data-based, trigger-based) map each event to a level. *)

type t = Low | High

val to_string : t -> string
val equal : t -> t -> bool

(** A selector decides, statefully, the fidelity level for each event as it
    streams by during recording. It runs on every event of an RCSE
    recording, so the shipped selectors (code-based, data-based, and the
    race trigger's detector) find what they know about an event's
    function, region or channel through a per-site {!Mvm.Site_memo}
    rather than by comparing names. *)
type selector = {
  name : string;
  level : Mvm.Event.t -> t;
}

(** [always level] is the constant selector. *)
val always : t -> selector

(** [by_function f] derives the level from the enclosing function of the
    event — the code-based selection of §3.1.1. The answer is kept per
    site in a {!Mvm.Site_memo}: [f] runs on a site's first event and again
    only after the site's slot saw another name, so every other event of
    the site costs one array read and one pointer comparison. [f] must be
    a function of the name alone. *)
val by_function : name:string -> (string -> t) -> selector

(** [by_site f] derives the level from the statement site of the event —
    site-granular selection, finer than {!by_function} (a static analysis
    can name individual suspect statements). *)
val by_site : name:string -> (int -> t) -> selector

(** [any selectors] records at high fidelity when any constituent selector
    does — code-based, data-based and trigger-based selection combined
    (§3.1.3). Every constituent sees every event, in list order, so
    stateful selectors keep their state consistent. *)
val any : selector list -> selector
