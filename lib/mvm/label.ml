open Ast

type site = { fname : string; kind : string }

type table = (int, site) Hashtbl.t

type labeled = { prog : Ast.program; table : table }

let relabel table counter fname block =
  let rec stmt s =
    incr counter;
    let sid = !counter in
    let node =
      match s.node with
      | If (c, b1, b2) -> If (c, blk b1, blk b2)
      | While (c, b) -> While (c, blk b)
      | Atomic b -> Atomic (blk b)
      | ( Skip | Assign _ | Store _ | Store_scalar _ | Input _ | Output _
        | Send _ | Recv _ | Try_recv _ | Lock _ | Unlock _ | Spawn _ | Call _
        | Return _ | Assert _ | Fail _ | Yield ) as n ->
        n
    in
    Hashtbl.replace table sid { fname; kind = node_kind node };
    { sid; node }
  and blk b = List.map stmt b in
  blk block

(* Static sanity checks: catching a typo'd function or region name at
   program-construction time beats debugging a crash mid-experiment. *)
let validate p =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  let func_names = List.map (fun (f : Ast.func) -> f.fname) p.funcs in
  let scalars, arrays =
    List.partition_map
      (function
        | Scalar_decl (r, _) -> Left r
        | Array_decl (r, _, _) -> Right r)
      p.regions
  in
  let check_func name =
    if not (List.mem name func_names) then
      fail "program %s: undefined function %s" p.name name
  in
  check_func p.main;
  let check_scalar r =
    if not (List.mem r scalars) then
      fail "program %s: undeclared scalar region %s" p.name r
  in
  let check_array r =
    if not (List.mem r arrays) then
      fail "program %s: undeclared array region %s" p.name r
  in
  let check_input ch =
    if not (List.mem_assoc ch p.input_domains) then
      fail "program %s: input channel %s has no declared domain" p.name ch
  in
  let rec expr = function
    | Const _ | Var _ -> ()
    | Load (r, e) -> check_array r; expr e
    | Load_scalar r -> check_scalar r
    | Arr_len r -> check_array r
    | Binop (_, a, b) -> expr a; expr b
    | Unop (_, e) -> expr e
  in
  ignore
    (fold_stmts
       (fun () _ s ->
         match s.node with
         | Assign (_, e) -> expr e
         | Store (r, i, e) -> check_array r; expr i; expr e
         | Store_scalar (r, e) -> check_scalar r; expr e
         | If (c, _, _) | While (c, _) -> expr c
         | Input (_, ch) -> check_input ch
         | Output (_, e) | Send (_, e) | Return e | Assert (e, _) -> expr e
         | Spawn (fn, args) | Call (_, fn, args) ->
           check_func fn;
           List.iter expr args
         | Skip | Recv _ | Try_recv _ | Lock _ | Unlock _ | Fail _ | Yield
         | Atomic _ ->
           ())
       () p)

let program p =
  validate p;
  let table = Hashtbl.create 64 in
  let counter = ref 0 in
  let funcs =
    List.map
      (fun (f : Ast.func) ->
        { f with body = relabel table counter f.fname f.body })
      p.funcs
  in
  { prog = { p with funcs }; table }

let site t sid = Hashtbl.find t sid


let sites t =
  Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
