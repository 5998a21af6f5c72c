(** The aggregate static-analysis report: lockset race candidates, the
    static plane map, and lint findings, plus the RCSE hooks derived from
    them (suspect-site selectors).

    With a node map ([analyze ~nodes]) the report goes distributed: race
    candidates are tightened by the node-aware {!Mhp} relation, the
    {!Commlint} communication rules join the findings, and a per-node
    view (threads, suspect sites, channels, outgoing may-send edges)
    feeds per-node recording selectors, shard write priority, and the
    partial-evidence steering hints. *)

open Mvm

type t

(** One node's slice of the analysis. *)
type node_view = {
  node : string;
  tids : int list;  (** static thread ids hosted here *)
  fnames : string list;  (** functions this node's threads may execute *)
  suspects : int list;  (** race-suspect sids in those functions *)
  channels : string list;  (** channels with a site on this node *)
  edges_out : Msgflow.edge list;  (** cross-node may-send edges leaving *)
}

(** [analyze ?threshold_bytes ?nodes labeled]. When [nodes] is given the
    lockset pass runs against {!Mhp.concurrent} (placement-refined, so
    the candidate set only shrinks), {!Commlint.run} findings are
    appended to the lints, and the per-node views are populated.

    @raise Invalid_argument when [nodes] is given and a thread root has
    no node assignment. *)
val analyze : ?threshold_bytes:int -> ?nodes:Node.map -> Label.labeled -> t

val races : t -> Lockset.candidate list

(** Sorted, deduplicated sids of all race-candidate sites. *)
val suspect_sids : t -> int list

val lints : t -> Lint.finding list
val has_lint_errors : t -> bool

(** The channel-communication graph; [None] without [~nodes]. *)
val msgflow : t -> Msgflow.t option

(** Per-node views in node declaration order; empty without [~nodes]. *)
val node_views : t -> node_view list

(** The suspect-site trigger as a ready sticky selector ("increase
    determinism guarantees onward from the point of detection"). *)
val trigger_selector : t -> Ddet_record.Fidelity_level.selector

(** The site-granular selector: high fidelity exactly at suspect-site
    events and nothing anywhere else — the cheapest static configuration,
    recording just enough interleaving to pin the order of the racing
    accesses. *)
val site_selector : t -> Ddet_record.Fidelity_level.selector

(** Shard write order for {!Ddet_record.Sharded_log.save_via}: nodes
    carrying more suspect sites first (map order breaks ties), so under
    a hostile store the most diagnostic shard has the fewest writes in
    front of it. Empty without [~nodes]. *)
val shard_priority : t -> string list

(** [steer t ~lost] is the steering for a partial-evidence replay after
    losing the [lost] nodes, derived from the {!Msgflow} reachability
    closure. {!Ddet_replay.Oracle.no_steer} without [~nodes]. *)
val steer : t -> lost:string list -> Ddet_replay.Oracle.steer

(** The whole report as one JSON object: program, races, suspect sids,
    planes, lints, per-node views ([nodes] is [[]] without [~nodes]). *)
val to_json : t -> string

(** The full human-readable report (races, planes, lints, suspects, and
    the per-node section when distributed). *)
val pp : Format.formatter -> t -> unit
