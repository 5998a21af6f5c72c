type map = {
  node_list : string list;
  assign : (string * string) list;  (* thread-root fname -> node *)
}

let valid_name s =
  s <> ""
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' -> true
         | _ -> false)
       s

let make ~nodes ~assign =
  if nodes = [] then invalid_arg "Node.make: empty node list";
  List.iter
    (fun n ->
      if not (valid_name n) then
        invalid_arg
          (Printf.sprintf
             "Node.make: node name %S (names become shard file names; use \
              [A-Za-z0-9_-])"
             n))
    nodes;
  let rec dup = function
    | [] -> None
    | n :: rest -> if List.mem n rest then Some n else dup rest
  in
  (match dup nodes with
  | Some n -> invalid_arg (Printf.sprintf "Node.make: duplicate node %S" n)
  | None -> ());
  List.iter
    (fun (f, n) ->
      if not (List.mem n nodes) then
        invalid_arg
          (Printf.sprintf "Node.make: %S assigned to undeclared node %S" f n))
    assign;
  { node_list = nodes; assign }

let nodes map = map.node_list
let node_of_fname map fname = List.assoc_opt fname map.assign

(* ------------------------------------------------------------------ *)
(* static structure walks *)

let rec block_iter f blk = List.iter (stmt_iter f) blk

and stmt_iter f (s : Ast.stmt) =
  f s;
  match s.Ast.node with
  | Ast.If (_, a, b) ->
    block_iter f a;
    block_iter f b
  | Ast.While (_, b) | Ast.Atomic b -> block_iter f b
  | _ -> ()

(* Function names reachable from [root] through Call edges (Spawn starts
   a new thread, not a new location on this node's call tree). *)
let reachable prog root =
  let seen = Hashtbl.create 8 in
  let rec go fname =
    if not (Hashtbl.mem seen fname) then begin
      Hashtbl.replace seen fname ();
      match Ast.find_func prog fname with
      | None -> ()
      | Some fn ->
        block_iter
          (fun s ->
            match s.Ast.node with
            | Ast.Call (_, callee, _) -> go callee
            | _ -> ())
          fn.Ast.body
    end
  in
  go root;
  seen

(* Spawn targets of [root]'s call tree, in program order (calls inlined
   at their call site, both branches of conditionals walked in order). *)
let spawns_in_tree prog root =
  let acc = ref [] in
  let on_stack = Hashtbl.create 8 in
  let rec go fname =
    if not (Hashtbl.mem on_stack fname) then begin
      Hashtbl.replace on_stack fname ();
      (match Ast.find_func prog fname with
      | None -> ()
      | Some fn ->
        block_iter
          (fun s ->
            match s.Ast.node with
            | Ast.Spawn (target, _) -> acc := target :: !acc
            | Ast.Call (_, callee, _) -> go callee
            | _ -> ())
          fn.Ast.body);
      Hashtbl.remove on_stack fname
    end
  in
  go root;
  List.rev !acc

let node_of_exn map fname =
  match node_of_fname map fname with
  | Some n -> n
  | None ->
    invalid_arg
      (Printf.sprintf "Node: thread root %S has no node assignment" fname)

let static_tids map (prog : Ast.program) =
  let roots = prog.Ast.main :: spawns_in_tree prog prog.Ast.main in
  (* a spawned thread that itself spawns makes tid order depend on the
     schedule: refuse rather than mis-assign *)
  List.iteri
    (fun i root ->
      if i > 0 && spawns_in_tree prog root <> [] then
        invalid_arg
          (Printf.sprintf
             "Node.static_tids: spawned thread %S spawns; tid order would \
              depend on the schedule"
             root))
    roots;
  List.mapi (fun tid root -> (tid, node_of_exn map root)) roots

let members map prog node =
  List.filter_map
    (fun (tid, n) -> if String.equal n node then Some tid else None)
    (static_tids map prog)

let chan_nodes map (prog : Ast.program) =
  let uses : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
  let note chan node =
    match Hashtbl.find_opt uses chan with
    | Some r -> if not (List.mem node !r) then r := node :: !r
    | None -> Hashtbl.replace uses chan (ref [ node ])
  in
  let roots = prog.Ast.main :: spawns_in_tree prog prog.Ast.main in
  List.iter
    (fun root ->
      let node = node_of_exn map root in
      let tree = reachable prog root in
      Hashtbl.iter
        (fun fname () ->
          match Ast.find_func prog fname with
          | None -> ()
          | Some fn ->
            block_iter
              (fun s ->
                match s.Ast.node with
                | Ast.Send (c, _) | Ast.Recv (_, c) | Ast.Try_recv (_, _, c)
                  ->
                  note c node
                | _ -> ())
              fn.Ast.body)
        tree)
    (List.sort_uniq compare roots);
  Hashtbl.fold (fun c r acc -> (c, List.sort compare !r) :: acc) uses []
  |> List.sort compare

let fname_nodes map (prog : Ast.program) =
  let roots = prog.Ast.main :: spawns_in_tree prog prog.Ast.main in
  let tbl : (string, string list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun root ->
      let node = node_of_exn map root in
      Hashtbl.iter
        (fun fname () ->
          match Hashtbl.find_opt tbl fname with
          | Some r -> if not (List.mem node !r) then r := node :: !r
          | None -> Hashtbl.replace tbl fname (ref [ node ]))
        (reachable prog root))
    (List.sort_uniq compare roots);
  Hashtbl.fold (fun f r acc -> (f, List.sort compare !r) :: acc) tbl []
  |> List.sort compare

let cut_channels map prog ~groups =
  let group_of node =
    let rec go i = function
      | [] -> None
      | g :: rest -> if List.mem node g then Some i else go (i + 1) rest
    in
    go 0 groups
  in
  List.filter_map
    (fun (chan, users) ->
      let gs = List.filter_map group_of users |> List.sort_uniq compare in
      if List.length gs >= 2 then Some chan else None)
    (chan_nodes map prog)
