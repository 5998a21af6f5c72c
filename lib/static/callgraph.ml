open Mvm
open Mvm.Ast

module SS = Set.Make (String)
module IS = Set.Make (Int)

type multiplicity = Single | Many

type entry = { entry : string; mult : multiplicity }

type idx = No_index | Const_idx of int | Var_idx

type access = {
  sid : int;
  fname : string;
  region : string;
  index : idx;
  write : bool;
}

type t = {
  labeled : Label.labeled;
  entries : entry list;
  reach : (string, SS.t) Hashtbl.t;
  accesses : access list;
  prologue : IS.t;
}

let idx_of = function
  | Const (Value.Vint n) -> Const_idx n
  | Const _ -> Var_idx
  | _ -> Var_idx

(* Region reads performed by evaluating an expression. [Arr_len] is not a
   read: the interpreter emits no Read event for it (array length is a
   static property, not shared state). *)
let rec expr_reads acc = function
  | Const _ | Var _ | Arr_len _ -> acc
  | Load_scalar r -> (r, No_index) :: acc
  | Load (r, i) -> expr_reads ((r, idx_of i) :: acc) i
  | Binop (_, a, b) -> expr_reads (expr_reads acc a) b
  | Unop (_, e) -> expr_reads acc e

(* Shared-region accesses of a statement's own evaluation: only the
   expressions the statement itself evaluates. Nested blocks are visited
   as their own statements (their events carry their own sids, except
   If/While conditions which carry the If/While sid — matching this
   attribution). *)
let node_accesses fname sid node =
  let reads es =
    List.concat_map
      (fun e ->
        List.map
          (fun (region, index) -> { sid; fname; region; index; write = false })
          (expr_reads [] e))
      es
  in
  match node with
  | Assign (_, e) | Output (_, e) | Send (_, e) | Return e | Assert (e, _) ->
    reads [ e ]
  | Store (r, i, e) ->
    { sid; fname; region = r; index = idx_of i; write = true } :: reads [ i; e ]
  | Store_scalar (r, e) ->
    { sid; fname; region = r; index = No_index; write = true } :: reads [ e ]
  | If (c, _, _) | While (c, _) -> reads [ c ]
  | Spawn (_, args) | Call (_, _, args) -> reads args
  | Skip | Input _ | Recv _ | Try_recv _ | Lock _ | Unlock _ | Fail _ | Yield
  | Atomic _ ->
    []

let accesses_of_program prog =
  List.rev
    (fold_stmts
       (fun acc fname s -> List.rev_append (node_accesses fname s.sid s.node) acc)
       [] prog)

(* [true] when executing [fn] can create a thread: a Spawn in [fn] or in
   any function reachable from it through Call edges. *)
let spawns_transitively prog =
  let direct = Hashtbl.create 16 in
  let calls = Hashtbl.create 16 in
  fold_stmts
    (fun () fname s ->
      match s.node with
      | Spawn _ -> Hashtbl.replace direct fname true
      | Call (_, g, _) ->
        Hashtbl.replace calls fname
          (g :: Option.value ~default:[] (Hashtbl.find_opt calls fname))
      | _ -> ())
    () prog;
  let memo = Hashtbl.create 16 in
  let rec go seen fn =
    match Hashtbl.find_opt memo fn with
    | Some b -> b
    | None ->
      if SS.mem fn seen then false
      else
        let seen = SS.add fn seen in
        let b =
          Hashtbl.mem direct fn
          || List.exists (go seen)
               (Option.value ~default:[] (Hashtbl.find_opt calls fn))
        in
        Hashtbl.replace memo fn b;
        b
  in
  fun fn -> go SS.empty fn

(* Spawn statements with the syntactic context needed for the multiplicity
   judgement: the spawning function and whether the spawn sits under a
   While loop. *)
let spawn_sites prog =
  List.concat_map
    (fun (f : func) ->
      let rec blk in_loop acc b =
        List.fold_left
          (fun acc s ->
            match s.node with
            | Spawn (target, _) -> (f.fname, target, in_loop) :: acc
            | If (_, b1, b2) -> blk in_loop (blk in_loop acc b1) b2
            | While (_, body) -> blk true acc body
            | Atomic body -> blk in_loop acc body
            | _ -> acc)
          acc b
      in
      blk false [] f.body)
    prog.funcs

let build (labeled : Label.labeled) =
  let prog = labeled.Label.prog in
  let spawns = spawn_sites prog in
  let spawn_targets =
    List.sort_uniq String.compare (List.map (fun (_, t, _) -> t) spawns)
  in
  let main_spawned = List.mem prog.main spawn_targets in
  let main_called =
    fold_stmts
      (fun acc _ s ->
        match s.node with
        | Call (_, fn, _) when String.equal fn prog.main -> true
        | _ -> acc)
      false prog
  in
  (* A spawn target runs as a single thread instance only when we can prove
     it statically: exactly one spawn statement targets it, that spawn is
     in [main] and not under a loop, and [main] itself runs exactly once.
     Everything else is treated as multi-instance (sound for race
     candidacy: more instances, more races). *)
  let single target =
    match List.filter (fun (_, t, _) -> String.equal t target) spawns with
    | [ (spawner, _, in_loop) ] ->
      String.equal spawner prog.main && (not in_loop) && (not main_spawned)
      && not main_called
    | _ -> false
  in
  let entries =
    { entry = prog.main;
      mult = (if main_spawned || main_called then Many else Single) }
    :: List.map
         (fun t ->
           { entry = t; mult = (if single t then Single else Many) })
         (List.filter (fun t -> not (String.equal t prog.main)) spawn_targets)
  in
  (* Call-closure reachability per entry. Spawn targets are separate
     entries: a spawn hands work to another thread, it does not put the
     target's sites on the spawner's stack. *)
  let calls = Hashtbl.create 16 in
  fold_stmts
    (fun () fname s ->
      match s.node with
      | Call (_, g, _) ->
        Hashtbl.replace calls fname
          (g :: Option.value ~default:[] (Hashtbl.find_opt calls fname))
      | _ -> ())
    () prog;
  let closure root =
    let rec go seen = function
      | [] -> seen
      | fn :: rest ->
        if SS.mem fn seen then go seen rest
        else
          go (SS.add fn seen)
            (Option.value ~default:[] (Hashtbl.find_opt calls fn) @ rest)
    in
    go SS.empty [ root ]
  in
  let reach = Hashtbl.create 8 in
  List.iter (fun e -> Hashtbl.replace reach e.entry (closure e.entry)) entries;
  (* Prologue: sids of main's leading statements executed before any other
     thread can exist. While main is the only thread, no access can race.
     Stop at the first statement that spawns or calls into spawning code. *)
  let spawns_trans = spawns_transitively prog in
  let prologue =
    if main_spawned || main_called then IS.empty
    else
      match find_func prog prog.main with
      | None -> IS.empty
      | Some f ->
        let rec sids_of acc (s : stmt) =
          let acc = IS.add s.sid acc in
          match s.node with
          | If (_, b1, b2) ->
            List.fold_left sids_of (List.fold_left sids_of acc b1) b2
          | While (_, b) | Atomic b -> List.fold_left sids_of acc b
          | _ -> acc
        in
        let rec can_spawn (s : stmt) =
          match s.node with
          | Spawn _ -> true
          | Call (_, g, _) -> spawns_trans g
          | If (_, b1, b2) -> List.exists can_spawn b1 || List.exists can_spawn b2
          | While (_, b) | Atomic b -> List.exists can_spawn b
          | _ -> false
        in
        let rec walk acc = function
          | [] -> acc
          | s :: rest ->
            if can_spawn s then acc else walk (sids_of acc s) rest
        in
        walk IS.empty f.body
  in
  { labeled; entries; reach; accesses = accesses_of_program prog; prologue }

let labeled t = t.labeled

let entries t = t.entries

let reachable t entry =
  Option.value ~default:SS.empty (Hashtbl.find_opt t.reach entry)

let entries_reaching t fname =
  List.filter (fun e -> SS.mem fname (reachable t e.entry)) t.entries

let accesses t = t.accesses

let in_prologue t sid = IS.mem sid t.prologue

(* Two sites can execute in different threads at the same time: they are
   reached from distinct thread entries, or from one entry that has
   several live instances. *)
let concurrent t a b =
  let ea = entries_reaching t a.fname and eb = entries_reaching t b.fname in
  List.exists
    (fun e1 ->
      List.exists
        (fun e2 ->
          (not (String.equal e1.entry e2.entry)) || e1.mult = Many)
        eb)
    ea
  && (not (in_prologue t a.sid))
  && not (in_prologue t b.sid)

let pp_idx ppf = function
  | No_index -> ()
  | Const_idx n -> Fmt.pf ppf "[%d]" n
  | Var_idx -> Fmt.pf ppf "[*]"

let pp_access ppf a =
  Fmt.pf ppf "#%d %s %s%a in %s" a.sid
    (if a.write then "write" else "read")
    a.region pp_idx a.index a.fname
