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

let runs_to_string runs =
  String.concat "," (List.map (fun (ix, n) -> Printf.sprintf "%d:%d" ix n) runs)

let rec chunks k = function
  | [] -> []
  | l ->
    let rec take n acc = function
      | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let head, rest = take k [] l in
    head :: chunks k rest

(* [shards] are (node, entries, bytes written) in node order *)
let manifest_string ~causal (log : Log.t) shards =
  let b = Log_io.out_create 1024 in
  Log_io.add_string b magic;
  Log_io.add_char b '\n';
  let line s = Log_io.framed b Log_io.add_string s in
  Log_io.add_header ~framed:true b log;
  List.iteri
    (fun ix (node, entries, bytes) ->
      line
        (Printf.sprintf "node %d %s %d %s" ix node entries
           (Log_io.crc_hex bytes)))
    shards;
  let runs = order_runs causal log in
  List.iter
    (fun chunk -> line ("order " ^ runs_to_string chunk))
    (chunks 16 runs);
  let ix_of n =
    let rec go i = function
      | [] -> -1
      | (m, _, _) :: rest -> if String.equal m n then i else go (i + 1) rest
    in
    go 0 shards
  in
  List.iter
    (fun (e : Causal.edge) ->
      line
        (Printf.sprintf "edge %S %d %d %d %d" e.Causal.chan
           (ix_of e.Causal.send_node) e.Causal.send_seq (ix_of e.Causal.recv_node)
           e.Causal.recv_seq))
    causal.Causal.edges;
  line
    (Printf.sprintf "end %d %d %d" (List.length shards)
       (List.length log.Log.entries)
       (List.length causal.Causal.edges));
  Log_io.out_contents b

(* recovered manifest fields; everything optional because every line is
   independently CRC'd and any suffix may be gone *)
type manifest = {
  m_header : Log_io.header;
  m_nodes : (int * (string * int * string)) list;  (* ix -> name, entries, crc *)
  m_order : (int * int) list;
  m_edges : (string * int * int * int * int) list;
  m_trailer : (int * int * int) option;
  m_corrupt : int;
}

let parse_manifest content =
  let first_line =
    match String.index_opt content '\n' with
    | Some k -> String.sub content 0 k
    | None -> content
  in
  if not (String.equal first_line magic) then
    Error "not a ddet-causal manifest"
  else
    let hdr = Log_io.fresh_header () in
    let nodes = ref [] and order = ref [] and edges = ref [] in
    let trailer = ref None and corrupt = ref 0 in
    let parse_payload text =
      let consumed =
        try Log_io.parse_header_line hdr text with _ -> false
      in
      if consumed then true
      else
        try
          Scanf.sscanf text "node %d %s %d %s"
            (fun ix name entries crc ->
              nodes := (ix, (name, entries, crc)) :: !nodes);
          true
        with _ -> (
          try
            Scanf.sscanf text "edge %S %d %d %d %d"
              (fun chan six sseq rix rseq ->
                edges := (chan, six, sseq, rix, rseq) :: !edges);
            true
          with _ -> (
            try
              Scanf.sscanf text "end %d %d %d" (fun a b c ->
                  trailer := Some (a, b, c));
              true
            with _ ->
              if String.length text > 6 && String.sub text 0 6 = "order " then (
                try
                  String.sub text 6 (String.length text - 6)
                  |> String.split_on_char ','
                  |> List.iter (fun run ->
                         Scanf.sscanf run "%d:%d" (fun ix n ->
                             order := (ix, n) :: !order));
                  true
                with _ -> false)
              else false))
    in
    Log_io.iter_lines content (fun n ls le ->
        if n > 1 && le > ls then
          match Log_io.check_frame content ls le with
          | Log_io.Framed
            when parse_payload (String.sub content (ls + 9) (le - ls - 9)) ->
            ()
          | Log_io.Framed | Log_io.Bad_crc | Log_io.Unframed -> incr corrupt);
    Ok
      {
        m_header = hdr;
        m_nodes = List.sort compare (List.rev !nodes);
        m_order = List.rev !order;
        m_edges = List.rev !edges;
        m_trailer = !trailer;
        m_corrupt = !corrupt;
      }

(* ------------------------------------------------------------------ *)
(* saving *)

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
           then Some (String.sub f plen (String.length f - plen - 6))
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
  (* every shard is written even when an earlier one fails: shards are
     independent evidence, and partial persistence is the useful case *)
  let written =
    List.map
      (fun (node, _, bytes) ->
        (node, store.Store.write (shard_path base node) bytes))
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

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_shard ~lose ~expected node path =
  if List.mem node lose || not (Sys.file_exists path) then
    { node; status = Missing; log = None }
  else
    let content = try read_file path with Sys_error e -> e in
    match Log_io.of_string_report ~mode:Log_io.Salvage content with
    | Error e -> { node; status = Corrupt e; log = None }
    | Ok (log, damage) ->
      let matches_manifest =
        match expected with
        | Some (entries, crc) ->
          Log_io.crc_matches crc content 0 (String.length content)
          && List.length log.Log.entries = entries
        | None -> true
      in
      if (not (Log_io.is_damaged damage)) && matches_manifest then
        { node; status = Intact; log = Some log }
      else { node; status = Salvaged damage; log = Some log }

let exists base =
  Sys.file_exists (manifest_path base) || scan_shards base <> []

let load ?(lose = []) base =
  if not (exists base) then
    Error "no sharded recording at that base path (no .causal, no .shard)"
  else
    let manifest =
      if Sys.file_exists (manifest_path base) then
        match
          try parse_manifest (read_file (manifest_path base))
          with Sys_error e -> Error e
        with
        | Ok m -> Some m
        | Error _ -> None
      else None
    in
    let node_names, expected =
      match manifest with
      | Some m when m.m_nodes <> [] ->
        ( List.map (fun (_, (n, _, _)) -> n) m.m_nodes,
          fun node ->
            List.find_map
              (fun (_, (n, entries, crc)) ->
                if String.equal n node then Some (entries, crc) else None)
              m.m_nodes )
      | _ -> (scan_shards base, fun _ -> None)
    in
    let shards =
      List.map
        (fun node ->
          load_shard ~lose ~expected:(expected node) node
            (shard_path base node))
        node_names
    in
    (* header: the manifest's when it recovered one, else the first
       surviving shard's (each shard carries the full header) *)
    let recorder, base_steps, failure, faults =
      match manifest with
      | Some m when m.m_header.Log_io.h_recorder <> "" ->
        ( m.m_header.Log_io.h_recorder,
          m.m_header.Log_io.h_base_steps,
          m.m_header.Log_io.h_failure,
          m.m_header.Log_io.h_faults )
      | _ -> (
        match List.find_opt shard_ok shards with
        | Some { log = Some l; _ } ->
          (l.Log.recorder, l.Log.base_steps, l.Log.failure, l.Log.faults)
        | _ -> ("", 0, None, None))
    in
    let ix_name =
      match manifest with
      | Some m -> List.map (fun (ix, (n, _, _)) -> (ix, n)) m.m_nodes
      | None -> []
    in
    let resolve ix = List.assoc_opt ix ix_name in
    (* manifest node indexes re-based onto positions in [nodes]: a
       corrupt node line leaves a hole in the ix space, and runs or
       edges referencing it are dropped, never guessed *)
    let pos_of ix =
      let rec go p = function
        | [] -> None
        | (i, _) :: rest -> if i = ix then Some p else go (p + 1) rest
      in
      go 0 ix_name
    in
    let order =
      match manifest with
      | Some m ->
        List.filter_map
          (fun (ix, n) ->
            match pos_of ix with Some p -> Some (p, n) | None -> None)
          m.m_order
      | None -> []
    in
    let edges =
      match manifest with
      | None -> []
      | Some m ->
        List.filter_map
          (fun (chan, six, sseq, rix, rseq) ->
            match (resolve six, resolve rix) with
            | Some send_node, Some recv_node ->
              Some
                {
                  Causal.chan;
                  send_node;
                  send_seq = sseq;
                  recv_node;
                  recv_seq = rseq;
                }
            | _ -> None)
          m.m_edges
    in
    let manifest_complete =
      match manifest with
      | Some m -> (
        m.m_corrupt = 0
        && m.m_header.Log_io.h_recorder <> ""
        &&
        match m.m_trailer with
        | Some (n_nodes, n_entries, n_edges) ->
          List.length m.m_nodes = n_nodes
          && List.fold_left (fun acc (_, n) -> acc + n) 0 m.m_order = n_entries
          && List.length m.m_edges = n_edges
        | None -> false)
      | None -> false
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
        manifest_complete;
      }

let all_lost l = not (List.exists shard_ok l.shards)

let pp_loaded ppf l =
  Format.fprintf ppf "sharded recording %s: %s manifest, %d node(s)" l.base
    (if l.manifest_complete then "complete"
     else if l.manifest_found then "damaged"
     else "no")
    (List.length l.nodes);
  List.iter
    (fun s ->
      Format.fprintf ppf "@ %-12s %s%s" s.node (status_name s.status)
        (match (s.status, s.log) with
        | Salvaged d, Some _ ->
          Format.asprintf " (%a)" Log_io.pp_damage d
        | Corrupt e, _ -> Printf.sprintf " (%s)" e
        | _ -> ""))
    l.shards
