(** Log persistence: a line-oriented text format so recordings can be
    shipped from the production machine to the developer's replay session
    (the paper's workflow) and inspected with ordinary tools.

    Format [ddet-log v2]: a header (recorder name, base steps, observed
    failure, optional fault plan) followed by one entry per line, each
    prefixed with its CRC32 in 8 hex digits, and closed by an [end N]
    entry-count trailer. Values are typed ([i:]/[b:]/[s:]/[u]) with
    OCaml-escaped quoted strings, so payloads survive arbitrary bytes.
    The checksums and trailer exist because logs travel: a shipped log
    can arrive bit-rotted or half-written, and the reader must be able to
    tell — and to keep going.

    Two loading modes implement the paper's graceful-degradation stance
    (DF should fall to 1/n, not to 0, when fidelity is lost):

    - [Strict] — any CRC mismatch, unparsable line, or missing/mismatched
      trailer is an [Error] naming the 1-based line and its text.
    - [Salvage] — corrupt lines are skipped and a truncated tail is
      accepted; the valid prefix is returned together with a {!damage}
      report. A salvaged log replays best-effort: the replayer may only
      reach the failure through search, and the assessment caps DF at
      1/n.

    The v1 format (no checksums, no trailer) is still read, in both
    modes, but no longer written; v1 truncation is undetectable. *)

(** How to treat damage during parsing. *)
type mode = Strict | Salvage

(** What {!Salvage} had to do to produce a log. *)
type damage = {
  total_lines : int;  (** non-blank lines seen, including the header *)
  salvaged_entries : int;  (** entries that survived *)
  corrupt_lines : (int * string * string) list;
      (** skipped lines as (1-based line, reason, offending text) *)
  truncated : bool;
      (** the [end N] trailer was missing or disagreed with the number of
          surviving entries — the tail of the log is gone *)
}

(** [is_damaged d] — any corrupt line or a truncated tail. *)
val is_damaged : damage -> bool

val pp_damage : Format.formatter -> damage -> unit

(** [to_string log] serialises in the v2 format. Serialisation is
    canonical: [of_string] of the result round-trips byte-for-byte. *)
val to_string : Log.t -> string

(** [of_string ?mode s] parses v2 or v1 (default [Strict]). Every
    [Error] names the 1-based line number and the offending line text. *)
val of_string : ?mode:mode -> string -> (Log.t, string) result

(** [of_string_report ?mode s] also returns the {!damage} report; under
    [Strict] a returned report is always clean. Malformed input never
    raises: every bad line is an [Error] or a damage record. *)
val of_string_report : ?mode:mode -> string -> (Log.t * damage, string) result

(** [save path log] writes the file (v2) {e atomically}: the payload goes
    to a fresh temp file in the destination directory which is then
    renamed over [path], so a crash mid-write can never leave a
    half-written log behind — readers see the old file or the new one,
    nothing in between. *)
val save : string -> Log.t -> unit

(** [save_via store path log] is {!save} routed through a pluggable
    {!Store.t}: the same temp-write-fsync-rename discipline, but every
    byte crosses [store], so fault injection ({!Faulty_store}) and retry
    policies ({!Retry.store}) apply. A permanent storage failure comes
    back as the typed error with the temp file cleaned up. *)
val save_via : Store.t -> string -> Log.t -> (unit, Store.error) result

(** [load ?mode path] reads a log file back.
    @raise Sys_error on I/O failure; parse errors come back as [Error]. *)
val load : ?mode:mode -> string -> (Log.t, string) result

(** [load_report ?mode path] is {!load} with the {!damage} report. *)
val load_report : ?mode:mode -> string -> (Log.t * damage, string) result

(**/**)

(* internal: the one line codec, shared with Log_segments (segmented
   persistence), Sharded_log (per-node shards and the causal manifest)
   and the replay layer's Checkpoint (CRC'd atomic frontier files) *)

val atomic_write : string -> string -> unit

(* [crc_hex s] is the CRC32 of [s] as 8 lowercase hex digits;
   [crc_matches hex s pos len] compares a stored hex token with the CRC32
   of s[pos, pos + len) as ints *)
val crc_hex : string -> string
val crc_matches : string -> string -> int -> int -> bool

(* the writer: a growable byte buffer *)
type out

val out_create : int -> out
val out_length : out -> int
val out_clear : out -> unit
val out_contents : out -> string
val out_sub : out -> int -> int -> string
val add_char : out -> char -> unit
val add_string : out -> string -> unit
val add_int : out -> int -> unit
val add_entry : out -> Log.entry -> unit
val add_header : framed:bool -> out -> Log.t -> unit

(* [framed o f x] appends [<crc8> <body>\n] with the body written by
   [f o x]: the one framing writer *)
val framed : out -> (out -> 'a -> unit) -> 'a -> unit

(* [iter_lines s f] calls [f n ls le] for every '\n'-separated line
   s[ls, le), numbered from 1 *)
val iter_lines : string -> (int -> int -> int -> unit) -> unit
val is_blank : string -> int -> int -> bool

(* the one framing verifier: a [Framed] line's body starts at [ls + 9] *)
type frame = Unframed | Bad_crc | Framed

val check_frame : string -> int -> int -> frame

exception Parse of string

type decoder

val decoder : string -> decoder

(* [dec_entry d ls le] decodes the entry text at s[ls, le) of the
   decoder's string.
   @raise Parse on any malformed token *)
val dec_entry : decoder -> int -> int -> Log.entry

type header = {
  mutable h_recorder : string;
  mutable h_base_steps : int;
  mutable h_failure : Mvm.Failure.t option;
  mutable h_faults : Mvm.Fault.plan option;
}

val fresh_header : unit -> header

(* [parse_header_line hdr line] applies a header line; false if [line]
   is not one.
   @raise Parse on a damaged one *)
val parse_header_line : header -> string -> bool
