open Ddet_record

type t = {
  log : Log.t;
  evidence : (string * Sharded_log.shard_status) list;
  lost : string list;
  complete : bool;
  order_exact : bool;
  edges_enforced : Causal.edge list;
  edges_dropped : Causal.edge list;
}

let stitch (l : Sharded_log.loaded) =
  let shards = Array.of_list l.Sharded_log.shards in
  let queues =
    Array.map
      (fun (s : Sharded_log.shard) ->
        if Sharded_log.shard_ok s then
          match s.Sharded_log.log with
          | Some slog ->
            let q = Queue.create () in
            List.iter (fun e -> Queue.push e q) slog.Log.entries;
            Some q
          | None -> None
        else None)
      shards
  in
  let out = ref [] in
  let emit e = out := e :: !out in
  (* walk the manifest's interleaving; a lost node's runs are skipped
     (the entries are gone — that is the hole partial-evidence search
     fills), a salvaged node's run stops when its queue runs dry *)
  List.iter
    (fun (pos, n) ->
      if pos >= 0 && pos < Array.length queues then
        match queues.(pos) with
        | None -> ()
        | Some q ->
          for _ = 1 to n do
            if not (Queue.is_empty q) then emit (Queue.pop q)
          done)
    l.Sharded_log.order;
  let emitted_by_order = List.length !out in
  (* anything the recovered manifest never accounted for: append per
     node, in node order — within-node order is still the shard's truth,
     only the cross-node weave is unknown here *)
  let leftover_nodes = ref 0 in
  Array.iter
    (fun q ->
      match q with
      | Some q when not (Queue.is_empty q) ->
        incr leftover_nodes;
        Queue.iter emit q
      | _ -> ())
    queues;
  let entries = List.rev !out in
  let order_exact =
    !leftover_nodes = 0 || (emitted_by_order = 0 && !leftover_nodes <= 1)
  in
  let evidence =
    List.map
      (fun (s : Sharded_log.shard) -> (s.Sharded_log.node, s.Sharded_log.status))
      l.Sharded_log.shards
  in
  let lost =
    List.filter_map
      (fun (s : Sharded_log.shard) ->
        if Sharded_log.shard_ok s then None else Some s.Sharded_log.node)
      l.Sharded_log.shards
  in
  let alive node = not (List.mem node lost) in
  let edges_enforced, edges_dropped =
    List.partition
      (fun (e : Causal.edge) ->
        alive e.Causal.send_node && alive e.Causal.recv_node)
      l.Sharded_log.edges
  in
  let complete =
    l.Sharded_log.manifest_complete
    && List.for_all
         (fun (s : Sharded_log.shard) -> s.Sharded_log.status = Sharded_log.Intact)
         l.Sharded_log.shards
    && order_exact
  in
  let log =
    Log.make
      ?faults:l.Sharded_log.faults
      ~recorder:
        (if l.Sharded_log.recorder = "" then "stitched"
         else l.Sharded_log.recorder)
      ~entries ~base_steps:l.Sharded_log.base_steps
      ~failure:l.Sharded_log.failure ()
  in
  let module T = Ddet_obs.Tracer in
  List.iter
    (fun (_, st) -> T.count ("stitch.shard." ^ Sharded_log.status_name st) 1)
    evidence;
  T.count "stitch.edges_enforced" (List.length edges_enforced);
  T.count "stitch.edges_dropped" (List.length edges_dropped);
  T.instant_ "stitch.done"
    ~args:
      [
        ("nodes", T.Count (List.length evidence));
        ("lost", T.Count (List.length lost));
        ("complete", T.Count (if complete then 1 else 0));
      ];
  {
    log;
    evidence;
    lost;
    complete;
    order_exact;
    edges_enforced;
    edges_dropped;
  }

let pp ppf t =
  Format.fprintf ppf "stitched %d entr%s from %d/%d node(s)%s"
    (List.length t.log.Log.entries)
    (if List.length t.log.Log.entries = 1 then "y" else "ies")
    (List.length t.evidence - List.length t.lost)
    (List.length t.evidence)
    (if t.complete then " (complete)"
     else if t.order_exact then " (partial, order exact)"
     else " (partial, order approximate)");
  List.iter
    (fun (n, st) ->
      Format.fprintf ppf "@ %-12s %s" n (Sharded_log.status_name st))
    t.evidence;
  if t.lost <> [] then
    Format.fprintf ppf "@ lost: %s" (String.concat ", " t.lost);
  Format.fprintf ppf "@ causal edges: %d enforced, %d lost with their nodes"
    (List.length t.edges_enforced)
    (List.length t.edges_dropped)
