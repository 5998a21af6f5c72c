(** Per-node sharded log persistence: distributed evidence on disk.

    A datacenter incident does not leave one log; it leaves one log {e per
    node}, and some of them are simply gone. The sharded writer models
    that: a finished recording is split by node (each entry charged to the
    node of its acting thread; node-less entries — outputs, the failure
    descriptor, governor marks — to the main thread's node) and written as
    one independently loadable [ddet-log v2] file per node, plus a causal
    manifest. The file set for base path [p] and nodes [server, p0, p1]:

    {v
    p.server.shard     entry stream "ddet-log v2": header, CRC'd
                       entries, `end N`
    p.p0.shard         ...
    p.p1.shard         ...
    p.causal           "ddet-causal v1" in {!Log_io}'s manifest grammar:
                       header, per-shard byte CRCs, run-length global
                       interleaving, cross-node edges, `end` counts
                       (atomic, written last)
    v}

    Each shard is a plain (non-atomic) store write followed by its
    fsync: shard loss is survivable {e by design}, so atomicity buys
    nothing, and a torn write leaves exactly the partial evidence the
    stitcher is built to handle. The manifest is atomic. Every byte
    crosses the given {!Store.t}, so {!Faulty_store} plans corrupt
    individual shards independently — the loss model this module exists
    for.

    The manifest carries two views of cross-node order: the Lamport-style
    send/recv {!Causal.edge}s (per-channel sequence matching — the causal
    truth, used to validate evidence and to report what ordering
    information died with a lost node) and the run-length encoded global
    interleaving (used by the stitcher to reconstruct the exact recorded
    entry order when all shards survive, and its surviving projection
    when they don't). Every manifest line is individually CRC'd, so a
    truncated or bit-rotted manifest degrades to a valid prefix — never
    to a fabricated edge. *)

type shard_status =
  | Intact  (** parsed clean and matches the manifest's byte CRC *)
  | Salvaged of Log_io.damage
      (** readable, but damaged or disagreeing with the manifest; the
          valid prefix was recovered *)
  | Missing  (** no file (or deliberately excluded via [lose]) *)
  | Corrupt of string
      (** the file cannot be read, or nothing of it parses *)

type shard = {
  node : string;
  status : shard_status;
  log : Log.t option;  (** the recovered per-node log, when readable *)
}

type loaded = {
  base : string;
  recorder : string;
  base_steps : int;
  failure : Mvm.Failure.t option;
  faults : Mvm.Fault.plan option;
  nodes : string list;  (** manifest node order *)
  shards : shard list;  (** same order as [nodes] *)
  order : (int * int) list;
      (** recovered global interleaving as (position in [nodes], run
          length) *)
  edges : Causal.edge list;  (** recovered cross-node ordering edges *)
  manifest_found : bool;
  manifest_complete : bool;
      (** the manifest parsed whole: trailer present, counts consistent,
          no corrupt lines *)
}

(** [shard_ok s] — the shard contributed evidence (intact or salvaged). *)
val shard_ok : shard -> bool

val status_name : shard_status -> string

type save_report = {
  shard_results : (string * (unit, Store.error) result) list;
  manifest_result : (unit, Store.error) result;
}

val save_ok : save_report -> bool
val pp_save_report : Format.formatter -> save_report -> unit

(** [split ~causal log] is the per-node logs in node order — exposed so
    tests can assert the split loses nothing. Each shard log carries the
    full header (recorder, base steps, failure, faults). *)
val split : causal:Causal.t -> Log.t -> (string * Log.t) list

(** [save_via ?priority store ~base ~causal log] writes and fsyncs
    every shard (continuing past individual failures — shards fail
    independently, that is the point) and then the manifest. The manifest records the
    CRC of what each shard {e should} contain, so a torn shard write is
    detected at load time even though the save carried on.

    [priority] names nodes whose shards are written {e first}, in the
    order given (unknown names ignored; the rest follow in node order) —
    static analysis ranks the most diagnostic shards so a store dying
    mid-save is most likely to have persisted them. [shard_results]
    stays in node order regardless. *)
val save_via :
  ?priority:string list ->
  Store.t ->
  base:string ->
  causal:Causal.t ->
  Log.t ->
  save_report

(** [load ?lose base] reads the shard set back. [lose] names nodes whose
    shards are treated as missing without touching the files — the CLI's
    [--lose-node]. Works with a damaged or absent manifest by scanning
    [base.NODE.shard], where [NODE] holds no ['.'] (so the shards of a
    sibling recording [base.old] are not this one's); no order or edges
    then, and nothing is complete. [Error] only when no artifact of a
    sharded recording exists. *)
val load : ?lose:string list -> string -> (loaded, string) result

(** [all_lost l] — not a single shard contributed evidence. *)
val all_lost : loaded -> bool

(** [exists base] — a causal manifest or at least one shard file exists
    at the base path; how the CLI distinguishes a sharded recording. *)
val exists : string -> bool
