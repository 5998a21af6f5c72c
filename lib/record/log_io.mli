(** Evidence persistence: line-oriented text formats so recordings can
    be shipped from the production machine to the developer's replay
    session (the paper's workflow) and inspected with ordinary tools.

    Two codecs serve every evidence file, and this module owns both:

    - the {e entry stream}: a magic line, header lines (recorder name,
      base steps, observed failure, optional fault plan), one entry per
      line prefixed with its CRC32 in 8 hex digits, and an [end N]
      entry-count trailer. Monolithic logs and per-node shards
      ([ddet-log v2]), segments ([ddet-seg v1 N]) and the segment
      header file ([ddet-seg-header v1]) are streams that differ only
      in their magic;
    - the {e framed-line file}: a magic line, then [<crc8> <body>]
      lines. The manifests of segmented and sharded recordings share
      one grammar on it, and search checkpoints are framed-line files
      too.

    Values are typed ([i:]/[b:]/[s:]/[u]) with OCaml-escaped quoted
    strings, so payloads survive arbitrary bytes. The checksums and
    trailers exist because evidence travels: a shipped file can arrive
    bit-rotted or half-written, and the reader must be able to tell —
    and to keep going.

    The checksum is CRC32 (IEEE 802.3, reflected polynomial
    0xEDB88320), computed slicing-by-8: 8 bytes per step through an
    8 x 256 table, the tail byte by byte, with no allocation. Every
    writer frames its lines with it and every reader checks them.

    The entry-stream reader reads each line once: it finds the line's
    end while decoding its fields straight from the bytes, then checks
    the body's CRC, which outranks whatever the decode found. A line's
    error is deferred to its end, so the one reported follows the
    format's precedence: an unterminated quote anywhere on the line,
    then a wrong field count, then the rightmost bad field.

    Two loading modes implement the paper's graceful-degradation stance
    (DF should fall to 1/n, not to 0, when fidelity is lost):

    - [Strict] — any CRC mismatch, unparsable line, or missing/mismatched
      trailer is an [Error] naming the 1-based line and its text.
    - [Salvage] — corrupt lines are skipped and a truncated tail is
      accepted; the valid prefix is returned together with a {!damage}
      report. A salvaged log replays best-effort: the replayer may only
      reach the failure through search, and the assessment caps DF at
      1/n.

    Any other magic, the retired unframed [ddet-log v1] included, is a
    bad magic: [Strict] refuses it by name, and [Salvage] reads on as
    [ddet-log v2], so a v1 log's unframed entries are corrupt lines,
    never entries. *)

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

(** [to_string log] serialises as a [ddet-log v2] stream. Serialisation is
    canonical: [of_string] of the result round-trips byte-for-byte. *)
val to_string : Log.t -> string

(** [of_string ?mode s] parses a [ddet-log v2] stream (default
    [Strict]). Every [Error] names the 1-based line number and the
    offending line text. *)
val of_string : ?mode:mode -> string -> (Log.t, string) result

(** [of_string_report ?mode s] also returns the {!damage} report; under
    [Strict] a returned report is always clean. Malformed input never
    raises: every bad line is an [Error] or a damage record. *)
val of_string_report : ?mode:mode -> string -> (Log.t * damage, string) result

(** [save path log] writes the file (v2) {e atomically} through
    {!Store.local}: the payload goes to a temp file next to [path]
    that is fsynced and renamed over it, so a crash mid-write can never
    leave a half-written log behind — readers see the old file or the
    new one, nothing in between.
    @raise Sys_error on a storage failure. *)
val save : string -> Log.t -> unit

(** [save_via store path log] is {!save} routed through a pluggable
    {!Store.t}: the same temp-write-fsync-rename discipline, but every
    byte crosses [store], so fault injection ({!Faulty_store}) and retry
    policies ({!Retry.store}) apply. A permanent storage failure comes
    back as the typed error with the temp file cleaned up. *)
val save_via : Store.t -> string -> Log.t -> (unit, Store.error) result

(** [load ?mode path] reads a log file back. A file that cannot be read
    is an [Error] with the OS reason, like a parse error. *)
val load : ?mode:mode -> string -> (Log.t, string) result

(** [load_report ?mode path] is {!load} with the {!damage} report. *)
val load_report : ?mode:mode -> string -> (Log.t * damage, string) result

(**/**)

(* internal: the two codecs, shared with Log_segments (segmented
   persistence), Sharded_log (per-node shards and the causal manifest)
   and the replay layer's Checkpoint *)

(* [read_file path] is the one evidence file read: the contents, or the
   OS reason the file cannot be read *)
val read_file : string -> (string, string) result

(* [crc_hex s] is the CRC32 of [s] as 8 lowercase hex digits;
   [crc_matches hex s pos len] compares a stored hex token with the CRC32
   of s[pos, pos + len) as ints *)
val crc_hex : string -> string
val crc_matches : string -> string -> int -> int -> bool

(* the writer: a growable byte buffer *)
type out

val out_create : int -> out
val out_clear : out -> unit
val out_contents : out -> string
val add_char : out -> char -> unit
val add_string : out -> string -> unit
val add_int : out -> int -> unit
val add_entry : out -> Log.entry -> unit

(* [framed o f x] appends [<crc8> <body>\n] with the body written by
   [f o x]: the one framing writer *)
val framed : out -> (out -> 'a -> unit) -> 'a -> unit

(* [read_stream ~magic ?until_damage ?mode s] is the one entry-stream
   reader; {!of_string_report} is it with the [ddet-log v2] magic. With
   [until_damage] (default false) the first bad line also ends a
   [Salvage] read: later lines of a torn segment are not trusted. *)
val read_stream :
  magic:string ->
  ?until_damage:bool ->
  ?mode:mode ->
  string ->
  (Log.t * damage, string) result

(* [read_framed ~magic mode s line] is the one framed-line reader: an
   [Error] for a wrong magic or an empty file; otherwise [line body] is
   called on the body of every CRC-valid line, returning whether it
   understood it. Every other non-blank line is bad: [Strict] turns the
   first one into an [Error] naming it, and [Salvage] counts them. *)
val read_framed :
  magic:string -> mode -> string -> (string -> bool) -> (int, string) result

(* The manifest grammar, on a framed-line file: the header lines; one
   [<part> <index> <name> <entries> <crc>] line per part file (a
   segment or a shard), with the whole file's CRC; the run-length
   global interleaving as [order index:n,...] lines; the cross-node
   edges as [edge <chan> <send index> <seq> <recv index> <seq>] lines;
   and [end <parts> <entries> <edges>]. *)
type part = { index : int; name : string; entries : int; crc : string }

type manifest = {
  header : Log.t;  (* no entries *)
  parts : part list;  (* by index; a bad line leaves a hole *)
  order : (int * int) list;
  edges : (string * int * int * int * int) list;
  complete : bool;
      (* no bad line, and the [end] counts match the parts, the edges,
         the parts' entries and (when present) the order runs *)
}

(* [manifest_to_string ~magic ~part header parts ~order ~edges] writes
   [parts] as (name, entries, crc) in index order *)
val manifest_to_string :
  magic:string ->
  part:string ->
  Log.t ->
  (string * int * string) list ->
  order:(int * int) list ->
  edges:(string * int * int * int * int) list ->
  string

(* [manifest_of_string ~magic ~part s] is [None] for a wrong magic or an
   empty file, else whatever lines survived *)
val manifest_of_string :
  magic:string -> part:string -> string -> manifest option
