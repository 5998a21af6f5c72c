(** Segmented log persistence: crash-tolerant recording for long runs.

    {!Log_io.save} is atomic but monolithic — nothing of the log is
    readable until the whole file is renamed into place. {!save_via}
    instead writes a finished log into fixed-size segment files, each
    with one store write and one fsync, and finishes by writing a
    manifest (atomically) that names every segment with its byte CRC and
    carries the log header. Every file is a client of {!Log_io}'s two
    codecs. The file set for base path [p] is:

    {v
    p.header          entry stream "ddet-seg-header v1": the recorder
                      line, written first (atomic)
    p.0000.seg        entry stream "ddet-seg v1 0": CRC'd entries, `end N`
    p.0001.seg        ...
    p.manifest        "ddet-manifest v2", the manifest grammar the causal
                      manifest also uses: header lines, one segment line
                      (entries, byte CRC) per segment, `end` counts
                      (atomic, last)
    v}

    Recovery after a crash walks the segments in order: every sealed
    segment is recovered whole (its trailer and line CRCs prove
    completeness), and the unsealed tail segment contributes its valid
    prefix — the same salvage guarantee {!Log_io} gives a truncated
    monolithic log, but the loss is bounded by one segment instead of the
    whole recording. A manifest of another version is not read: the
    load takes the same walk. *)

(** [save_via store ?segment_entries base log] writes [log] as the file
    set at [base] through [store] (default 64 entries per segment).
    Stale artifacts of a previous recording under [base] are removed
    first, and [base.header] is written before any segment so recovery
    knows the recorder even if the crash comes before the manifest.

    The first permanent store error ends the save with that error, and
    the manifest is withheld (it asserts completeness). The segments
    and the torn tail's prefix persisted before the fault remain on disk
    for {!load} to salvage. After [Ok ()], {!load} reconstructs the full
    log exactly. *)
val save_via :
  Store.t ->
  ?segment_entries:int ->
  string ->
  Log.t ->
  (unit, Store.error) result

(** [save ?segment_entries base log] is {!save_via} through
    {!Store.local}.
    @raise Sys_error on a permanent storage failure. *)
val save : ?segment_entries:int -> string -> Log.t -> unit

(** What recovery found. [complete] means the manifest was present,
    intact, and every listed segment validated — the load is the whole
    recording. Otherwise the load is the crash-recovered prefix:
    [segments_complete] sealed segments plus [tail_entries] salvaged from
    the unsealed tail. *)
type recovery = {
  segments_found : int;
  segments_complete : int;
  entries : int;  (** total entries recovered *)
  tail_entries : int;  (** salvaged from an unsealed/damaged tail segment *)
  complete : bool;
}

val is_damaged : recovery -> bool
val pp_recovery : Format.formatter -> recovery -> unit

(** [load base] reconstructs a log from the segment file set. With an
    intact manifest this is exact (header included); after a crash it
    recovers all complete segments plus the valid prefix of the tail,
    taking the recorder from [base.header] and the failure from a
    recovered [faildesc] entry when one made it to disk. A segment that
    is missing or cannot be read ends the walk. [Error] only when
    nothing of the recording exists. *)
val load : string -> (Log.t * recovery, string) result

(** [exists base] — some artifact of a segmented recording (manifest,
    header or first segment) is present; how the CLI distinguishes a
    segmented base path from a monolithic log file. *)
val exists : string -> bool
