(* Per-node sharded persistence. See the interface for the format. *)

let magic = "ddet-causal v1"
let shard_path base node = Printf.sprintf "%s.%s.shard" base node
let manifest_path base = base ^ ".causal"

type shard_status =
  | Intact
  | Salvaged of Log_io.damage
  | Missing
  | Corrupt of string

type shard = { node : string; status : shard_status; log : Log.t option }

type loaded = {
  base : string;
  recorder : string;
  base_steps : int;
  failure : Mvm.Failure.t option;
  faults : Mvm.Fault.plan option;
  nodes : string list;
  shards : shard list;
  order : (int * int) list;
  edges : Causal.edge list;
  manifest_found : bool;
  manifest_complete : bool;
}

let shard_ok s =
  match s.status with
  | Intact | Salvaged _ -> s.log <> None
  | Missing | Corrupt _ -> false

let status_name = function
  | Intact -> "intact"
  | Salvaged _ -> "salvaged"
  | Missing -> "missing"
  | Corrupt _ -> "corrupt"

type save_report = {
  shard_results : (string * (unit, Store.error) result) list;
  manifest_result : (unit, Store.error) result;
}

let save_ok r =
  r.manifest_result = Ok ()
  && List.for_all (fun (_, res) -> res = Ok ()) r.shard_results

let pp_save_report ppf r =
  List.iter
    (fun (node, res) ->
      match res with
      | Ok () -> Format.fprintf ppf "shard %s: written@ " node
      | Error e ->
        Format.fprintf ppf "shard %s: FAILED (%a)@ " node Store.pp_error e)
    r.shard_results;
  match r.manifest_result with
  | Ok () -> Format.fprintf ppf "manifest: written"
  | Error e -> Format.fprintf ppf "manifest: FAILED (%a)" Store.pp_error e

(* ------------------------------------------------------------------ *)
(* splitting *)

(* The node charged with an entry. Entries that carry a thread follow
   it; global entries (outputs, the failure descriptor, governor and
   flight accounting) are charged to the main thread's node — the
   coordinator observed them. *)
let entry_node causal ~main_node = function
  | Log.Sched { tid; _ }
  | Log.Input { tid; _ }
  | Log.Read_val { tid; _ }
  | Log.Sync { tid; _ }
  | Log.Cp_sched { tid; _ }
  | Log.Cp_input { tid; _ } ->
    Causal.node_of_tid causal tid
  | Log.Output _ | Log.Failure_desc _ | Log.Flight_note _ | Log.Mark _
  | Log.Govern _ ->
    main_node

let split ~causal (log : Log.t) =
  let main_node = Causal.node_of_tid causal 0 in
  let per_node : (string, Log.entry list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun n -> Hashtbl.replace per_node n (ref []))
    causal.Causal.nodes;
  List.iter
    (fun e ->
      let n = entry_node causal ~main_node e in
      match Hashtbl.find_opt per_node n with
      | Some r -> r := e :: !r
      | None -> ())
    log.Log.entries;
  List.map
    (fun n ->
      let entries = List.rev !(Hashtbl.find per_node n) in
      ( n,
        Log.make ?faults:log.Log.faults ~recorder:log.Log.recorder ~entries
          ~base_steps:log.Log.base_steps ~failure:log.Log.failure () ))
    causal.Causal.nodes

(* the global interleaving as (node index, run length) *)
let order_runs causal (log : Log.t) =
  let main_node = Causal.node_of_tid causal 0 in
  let ix_of =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i n -> Hashtbl.replace tbl n i) causal.Causal.nodes;
    fun n -> Hashtbl.find tbl n
  in
  let runs, last =
    List.fold_left
      (fun (runs, last) e ->
        let ix = ix_of (entry_node causal ~main_node e) in
        match last with
        | Some (i, n) when i = ix -> (runs, Some (i, n + 1))
        | Some r -> (r :: runs, Some (ix, 1))
        | None -> (runs, Some (ix, 1)))
      ([], None) log.Log.entries
  in
  List.rev (match last with Some r -> r :: runs | None -> runs)

(* ------------------------------------------------------------------ *)
(* the manifest *)

(* the keyword of a shard's line in the manifest *)
let part = "node"

(* [shards] are (node, entries, bytes written) in node order; an edge
   names its nodes by their index in that order *)
let manifest_string ~causal (log : Log.t) shards =
  let ix_of n =
    Option.value ~default:(-1)
      (List.find_index (fun (m, _, _) -> String.equal m n) shards)
  in
  Log_io.manifest_to_string ~magic ~part log
    (List.map
       (fun (node, entries, bytes) -> (node, entries, Log_io.crc_hex bytes))
       shards)
    ~order:(order_runs causal log)
    ~edges:
      (List.map
         (fun (e : Causal.edge) ->
           ( e.Causal.chan,
             ix_of e.Causal.send_node,
             e.Causal.send_seq,
             ix_of e.Causal.recv_node,
             e.Causal.recv_seq ))
         causal.Causal.edges)

(* ------------------------------------------------------------------ *)
(* saving *)

(* The nodes with a [base.NODE.shard] file. Node names never hold a '.'
   ({!Mvm.Node}), so [base.old.p0.shard] is a shard of the sibling
   recording [base.old], not of this one. *)
let scan_shards base =
  let dir = Filename.dirname base in
  let prefix = Filename.basename base ^ "." in
  let plen = String.length prefix in
  if not (Sys.file_exists dir && Sys.is_directory dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           if
             String.length f > plen + 6
             && String.sub f 0 plen = prefix
             && Filename.check_suffix f ".shard"
           then
             let node = String.sub f plen (String.length f - plen - 6) in
             if String.contains node '.' then None else Some node
           else None)
    |> List.sort compare

let save_via ?(priority = []) store ~base ~(causal : Causal.t) (log : Log.t) =
  (* stale shards of a previous recording under this base would be
     mistaken for lost-and-found evidence: clear them first *)
  List.iter
    (fun node -> store.Store.remove (shard_path base node))
    (scan_shards base);
  store.Store.remove (manifest_path base);
  (* each shard is encoded once: the bytes written are the bytes the
     manifest CRCs *)
  let shards =
    List.map
      (fun (node, slog) ->
        (node, List.length slog.Log.entries, Log_io.to_string slog))
      (split ~causal log)
  in
  (* write order: prioritized nodes first (in the order given), the rest
     in node order — under a store that dies mid-save, the shards the
     caller deems most diagnostic are the ones most likely on disk *)
  let write_order =
    let prioritized =
      List.filter_map
        (fun n -> List.find_opt (fun (m, _, _) -> String.equal m n) shards)
        priority
    in
    prioritized
    @ List.filter (fun (n, _, _) -> not (List.mem n priority)) shards
  in
  (* every shard is written and fsynced even when an earlier one fails:
     shards are independent evidence, and partial persistence is the
     useful case *)
  let written =
    List.map
      (fun (node, _, bytes) ->
        (node, Store.durable_write store (shard_path base node) bytes))
      write_order
  in
  (* report and manifest stay in node order regardless of write order *)
  let shard_results =
    List.map (fun (node, _, _) -> (node, List.assoc node written)) shards
  in
  let manifest_result =
    Store.atomic_write store (manifest_path base)
      (manifest_string ~causal log shards)
  in
  { shard_results; manifest_result }

(* ------------------------------------------------------------------ *)
(* loading *)

(* A shard that cannot be read is corrupt, never a zero-entry salvage;
   [expected] is its manifest line, when the manifest kept one. *)
let load_shard ~lose ~(expected : Log_io.part option) node path =
  if List.mem node lose || not (Sys.file_exists path) then
    { node; status = Missing; log = None }
  else
    match Log_io.read_file path with
    | Error e -> { node; status = Corrupt e; log = None }
    | Ok content -> (
      match Log_io.of_string_report ~mode:Log_io.Salvage content with
      | Error e -> { node; status = Corrupt e; log = None }
      | Ok (log, damage) ->
        let matches_manifest =
          match expected with
          | Some p ->
            Log_io.crc_matches p.Log_io.crc content 0 (String.length content)
            && List.length log.Log.entries = p.Log_io.entries
          | None -> true
        in
        if (not (Log_io.is_damaged damage)) && matches_manifest then
          { node; status = Intact; log = Some log }
        else { node; status = Salvaged damage; log = Some log })

let exists base =
  Sys.file_exists (manifest_path base) || scan_shards base <> []

let load ?(lose = []) base =
  if not (exists base) then
    Error "no sharded recording at that base path (no .causal, no .shard)"
  else
    let manifest =
      Result.to_option (Log_io.read_file (manifest_path base))
      |> Fun.flip Option.bind (Log_io.manifest_of_string ~magic ~part)
    in
    let parts =
      match manifest with Some m -> m.Log_io.parts | None -> []
    in
    let node_names =
      if parts <> [] then List.map (fun p -> p.Log_io.name) parts
      else scan_shards base
    in
    let shards =
      List.map
        (fun node ->
          load_shard ~lose
            ~expected:
              (List.find_opt (fun p -> String.equal p.Log_io.name node) parts)
            node (shard_path base node))
        node_names
    in
    (* header: the manifest's when it recovered one, else the first
       surviving shard's (each shard carries the full header) *)
    let recorder, base_steps, failure, faults =
      match
        match manifest with
        | Some m -> Some m.Log_io.header
        | None ->
          List.find_map (fun s -> if shard_ok s then s.log else None) shards
      with
      | Some l ->
        (l.Log.recorder, l.Log.base_steps, l.Log.failure, l.Log.faults)
      | None -> ("", 0, None, None)
    in
    (* manifest part indexes re-based onto positions in [nodes]: a
       corrupt node line leaves a hole in the index space, and runs or
       edges referencing it are dropped, never guessed *)
    let at ix =
      List.assoc_opt ix
        (List.mapi (fun pos p -> (p.Log_io.index, (pos, p.Log_io.name))) parts)
    in
    let order, edges =
      match manifest with
      | None -> ([], [])
      | Some m ->
        ( List.filter_map
            (fun (ix, n) -> Option.map (fun (pos, _) -> (pos, n)) (at ix))
            m.Log_io.order,
          List.filter_map
            (fun (chan, six, send_seq, rix, recv_seq) ->
              match (at six, at rix) with
              | Some (_, send_node), Some (_, recv_node) ->
                Some { Causal.chan; send_node; send_seq; recv_node; recv_seq }
              | _ -> None)
            m.Log_io.edges )
    in
    Ok
      {
        base;
        recorder;
        base_steps;
        failure;
        faults;
        nodes = node_names;
        shards;
        order;
        edges;
        manifest_found = manifest <> None;
        manifest_complete =
          (match manifest with Some m -> m.Log_io.complete | None -> false);
      }

let all_lost l = not (List.exists shard_ok l.shards)
