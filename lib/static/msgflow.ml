open Mvm
open Mvm.Ast
module IS = Set.Make (Int)
module SS = Callgraph.SS

(* The channel-communication graph: which sites send/receive on which
   channels, which nodes those sites may run on, and the node-pair edges
   a message on each channel may create. Everything is a may-analysis
   over the static structure (reachability through Call edges, both
   branches of conditionals), so the edge set over-approximates any
   dynamic cross-node causal edge the Causal monitor can observe — the
   soundness direction partial-evidence steering needs: a channel with
   no static path to a survivor provably never influenced one. *)

type kind = Send | Recv | Try_recv

type site = {
  sid : int;
  fname : string;
  chan : string;
  kind : kind;
  nodes : string list;  (** nodes whose threads may execute this site *)
}

type edge = { chan : string; from_node : string; to_node : string }

type t = {
  map : Node.map;
  labeled : Label.labeled;
  sites : site list;
  edges : edge list;
  cross : edge list;
  reach : (string, SS.t) Hashtbl.t;  (* node -> nodes reachable via cross edges *)
  before : (string, (int, IS.t) Hashtbl.t) Hashtbl.t;
  loops : IS.t;
}

(* Structural must-precede within one function body. [before(sid)] holds
   every sid whose statement, when it executes at all, has started before
   [sid]'s statement starts: earlier statements of the same block
   (including everything nested in them) and every enclosing statement.
   Sibling branches of one conditional are NOT in each other's before
   set (they never co-execute), and a loop body is only "before" what
   follows the loop — two sids inside one loop stay unordered across
   iterations, which [precedes] callers guard with [in_loop]. *)
let before_of_body body =
  let tbl : (int, IS.t) Hashtbl.t = Hashtbl.create 32 in
  let rec sids_of (s : stmt) acc =
    let acc = IS.add s.sid acc in
    match s.node with
    | If (_, a, b) -> List.fold_right sids_of a (List.fold_right sids_of b acc)
    | While (_, b) | Atomic b -> List.fold_right sids_of b acc
    | _ -> acc
  in
  let rec walk pre block =
    List.fold_left
      (fun pre (s : stmt) ->
        Hashtbl.replace tbl s.sid pre;
        let inner = IS.add s.sid pre in
        (match s.node with
        | If (_, a, b) ->
          ignore (walk inner a);
          ignore (walk inner b)
        | While (_, b) | Atomic b -> ignore (walk inner b)
        | _ -> ());
        IS.union pre (sids_of s IS.empty))
      pre block
  in
  ignore (walk IS.empty body);
  tbl

let loops_of prog =
  let acc = ref IS.empty in
  let rec stmt in_loop (s : stmt) =
    if in_loop then acc := IS.add s.sid !acc;
    match s.node with
    | If (_, a, b) ->
      List.iter (stmt in_loop) a;
      List.iter (stmt in_loop) b
    | While (_, b) -> List.iter (stmt true) b
    | Atomic b -> List.iter (stmt in_loop) b
    | _ -> ()
  in
  List.iter (fun (f : func) -> List.iter (stmt false) f.body) prog.funcs;
  !acc

let analyze ~map (labeled : Label.labeled) =
  let prog = labeled.Label.prog in
  let fname_nodes = Node.fname_nodes map prog in
  let nodes_of fname =
    Option.value ~default:[] (List.assoc_opt fname fname_nodes)
  in
  let sites =
    fold_stmts
      (fun acc fname s ->
        let mk chan kind =
          { sid = s.sid; fname; chan; kind; nodes = nodes_of fname } :: acc
        in
        match s.node with
        | Ast.Send (c, _) -> mk c Send
        | Ast.Recv (_, c) -> mk c Recv
        | Ast.Try_recv (_, _, c) -> mk c Try_recv
        | _ -> acc)
      [] prog
    |> List.sort (fun (a : site) (b : site) ->
           compare (a.chan, a.sid) (b.chan, b.sid))
  in
  let chans =
    List.sort_uniq compare (List.map (fun (s : site) -> s.chan) sites)
  in
  let edges =
    List.concat_map
      (fun c ->
        let on k =
          List.concat_map
            (fun (s : site) -> if s.chan = c && k s.kind then s.nodes else [])
            sites
          |> List.sort_uniq compare
        in
        let send_nodes = on (fun k -> k = Send) in
        let recv_nodes = on (fun k -> k <> Send) in
        List.concat_map
          (fun f ->
            List.map (fun t -> { chan = c; from_node = f; to_node = t }) recv_nodes)
          send_nodes)
      chans
    |> List.sort_uniq compare
  in
  let cross = List.filter (fun e -> e.from_node <> e.to_node) edges in
  (* transitive closure of the cross-node edges, channel-agnostic: a
     message into node n can influence anything n later sends *)
  let reach : (string, SS.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun n ->
      Hashtbl.replace reach n
        (SS.of_list
           (List.filter_map
              (fun e -> if e.from_node = n then Some e.to_node else None)
              cross)))
    (Node.nodes map);
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun n ->
        let cur = Hashtbl.find reach n in
        let nxt =
          SS.fold
            (fun m acc ->
              SS.union acc
                (Option.value ~default:SS.empty (Hashtbl.find_opt reach m)))
            cur cur
        in
        if not (SS.equal cur nxt) then begin
          Hashtbl.replace reach n nxt;
          changed := true
        end)
      (Node.nodes map)
  done;
  let before = Hashtbl.create 16 in
  List.iter
    (fun (f : func) -> Hashtbl.replace before f.fname (before_of_body f.body))
    prog.funcs;
  { map; labeled; sites; edges; cross; reach; before; loops = loops_of prog }

let sites t = t.sites
let cross_edges t = t.cross

let channels t =
  List.sort_uniq compare (List.map (fun (s : site) -> s.chan) t.sites)

let senders t chan =
  List.filter (fun (s : site) -> s.chan = chan && s.kind = Send) t.sites

let receivers t chan =
  List.filter (fun (s : site) -> s.chan = chan && s.kind <> Send) t.sites

let has_edge t ~chan ~from_node ~to_node =
  List.exists
    (fun e -> e.chan = chan && e.from_node = from_node && e.to_node = to_node)
    t.edges

let reaches t a b =
  match Hashtbl.find_opt t.reach a with
  | Some set -> SS.mem b set
  | None -> false

let node_channels t node =
  List.filter_map
    (fun (s : site) -> if List.mem node s.nodes then Some s.chan else None)
    t.sites
  |> List.sort_uniq compare

let hot_channels t ~lost ~survivors =
  let lands_on_survivor_path recv_node =
    List.exists (fun s -> recv_node = s || reaches t recv_node s) survivors
  in
  List.filter
    (fun c ->
      List.exists (fun (s : site) -> List.exists (fun n -> List.mem n lost) s.nodes)
        (senders t c)
      && List.exists
           (fun (s : site) -> List.exists lands_on_survivor_path s.nodes)
           (receivers t c))
    (channels t)

let precedes t ~fname a b =
  match Hashtbl.find_opt t.before fname with
  | None -> false
  | Some tbl -> (
    match Hashtbl.find_opt tbl b with
    | Some set -> IS.mem a set
    | None -> false)

let in_loop t sid = IS.mem sid t.loops
