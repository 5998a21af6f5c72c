open Mvm
open Mvm.Ast
module SS = Callgraph.SS

(* Must-held locksets, Eraser-style but interprocedural and path-meeting.

   The analysis under-approximates the set of locks held at every site:
   joins meet with set intersection, a callee's entry lockset is the meet
   over all its call contexts, and a call conservatively drops any lock
   the callee's closure might release. Under-approximating locksets
   over-approximates races — the direction the soundness law needs: if
   two sites share a must-held lock, the dynamic happens-before detector
   can never report them (the lock's release->acquire edge orders them),
   so excluding only such pairs can never lose a dynamic race.

   Atomic blocks are deliberately NOT a pseudo-lock: the happens-before
   detector knows nothing about atomicity and does report conflicting
   accesses inside two atomic sections, so suppressing them statically
   would be unsound with respect to it.

   A lockset of [None] means "not reached yet" (top of the lattice), so
   dead code after a [Return] never drags a join down. *)

type candidate = {
  region : string;
  a : Callgraph.access;
  b : Callgraph.access;
  locks_a : string list;
  locks_b : string list;
}

type result = {
  graph : Callgraph.t;
  locksets : (int, SS.t) Hashtbl.t;
  candidates : candidate list;
}

let meet a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (SS.inter a b)

let opt_equal a b =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> SS.equal a b
  | _ -> false

let analyze ?mhp graph =
  let conc =
    match mhp with
    | None -> Callgraph.concurrent graph
    | Some m -> Mhp.concurrent m
  in
  let labeled = Callgraph.labeled graph in
  let prog = labeled.Label.prog in
  (* locks each function's body releases, for the call-effect summary *)
  let unlocks_direct : (string, SS.t) Hashtbl.t = Hashtbl.create 16 in
  fold_stmts
    (fun () fname s ->
      match s.node with
      | Unlock m ->
        Hashtbl.replace unlocks_direct fname
          (SS.add m
             (Option.value ~default:SS.empty
                (Hashtbl.find_opt unlocks_direct fname)))
      | _ -> ())
    () prog;
  let may_unlock fn =
    SS.fold
      (fun g acc ->
        SS.union acc
          (Option.value ~default:SS.empty (Hashtbl.find_opt unlocks_direct g)))
      (Callgraph.reachable graph fn)
      SS.empty
  in
  (* thread entries start with no locks held: a spawned thread inherits
     nothing (mutex ownership is per-thread in the interpreter) *)
  let entry_ls : (string, SS.t option) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun (f : func) -> Hashtbl.replace entry_ls f.fname None) prog.funcs;
  List.iter
    (fun (e : Callgraph.entry) ->
      Hashtbl.replace entry_ls e.Callgraph.entry (Some SS.empty))
    (Callgraph.entries graph);
  let changed = ref true in
  let propagate fn ls =
    match ls with
    | None -> ()
    | Some _ -> (
      match Hashtbl.find_opt entry_ls fn with
      | None -> ()
      | Some old ->
        let nxt = meet old ls in
        if not (opt_equal old nxt) then (
          Hashtbl.replace entry_ls fn nxt;
          changed := true))
  in
  let noop _sid _ls = () in
  let rec walk record ls block = List.fold_left (step record) ls block
  and step record ls (s : stmt) =
    (match ls with Some l -> record s.sid l | None -> ());
    match s.node with
    | Lock m -> Option.map (SS.add m) ls
    | Unlock m -> Option.map (SS.remove m) ls
    | Return _ | Fail _ -> None
    | If (_, b1, b2) -> meet (walk record ls b1) (walk record ls b2)
    | While (_, b) ->
      (* loop invariant: meet of the entry lockset with the body's exit,
         iterated to a fixpoint (locksets only shrink, so it terminates) *)
      let rec fix cur =
        let out = walk noop cur b in
        let nxt = meet cur out in
        if opt_equal nxt cur then cur else fix nxt
      in
      let inv = fix ls in
      (match inv with Some l -> record s.sid l | None -> ());
      ignore (walk record inv b);
      inv
    | Atomic b -> walk record ls b
    | Call (_, fn, _) ->
      propagate fn ls;
      Option.map (fun l -> SS.diff l (may_unlock fn)) ls
    | Skip | Assign _ | Store _ | Store_scalar _ | Input _ | Output _ | Send _
    | Recv _ | Try_recv _ | Spawn _ | Assert _ | Yield ->
      ls
  in
  (* phase 1: fixpoint on entry locksets *)
  while !changed do
    changed := false;
    List.iter
      (fun (f : func) ->
        match Hashtbl.find_opt entry_ls f.fname with
        | Some (Some _ as ls) -> ignore (walk noop ls f.body)
        | _ -> ())
      prog.funcs
  done;
  (* phase 2: one recording pass at the stable entry locksets *)
  let locksets : (int, SS.t) Hashtbl.t = Hashtbl.create 64 in
  let record sid l =
    match Hashtbl.find_opt locksets sid with
    | None -> Hashtbl.replace locksets sid l
    | Some prev -> Hashtbl.replace locksets sid (SS.inter prev l)
  in
  List.iter
    (fun (f : func) ->
      match Hashtbl.find_opt entry_ls f.fname with
      | Some (Some _ as ls) -> ignore (walk record ls f.body)
      | _ -> ())
    prog.funcs;
  (* pair up the accesses *)
  let index_compatible (a : Callgraph.access) (b : Callgraph.access) =
    match (a.Callgraph.index, b.Callgraph.index) with
    | Callgraph.Const_idx x, Callgraph.Const_idx y -> x = y
    | _ -> true
  in
  let accs =
    Array.of_list
      (List.filter
         (fun (a : Callgraph.access) -> Hashtbl.mem locksets a.Callgraph.sid)
         (Callgraph.accesses graph))
  in
  let seen = Hashtbl.create 32 in
  let cands = ref [] in
  let n = Array.length accs in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      let a = accs.(i) and b = accs.(j) in
      if
        String.equal a.Callgraph.region b.Callgraph.region
        && (a.Callgraph.write || b.Callgraph.write)
        && (i <> j || a.Callgraph.write)
        && index_compatible a b
        && conc a b
      then begin
        let la = Hashtbl.find locksets a.Callgraph.sid in
        let lb = Hashtbl.find locksets b.Callgraph.sid in
        if SS.is_empty (SS.inter la lb) then begin
          let key =
            ( a.Callgraph.region,
              min a.Callgraph.sid b.Callgraph.sid,
              max a.Callgraph.sid b.Callgraph.sid )
          in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            cands :=
              {
                region = a.Callgraph.region;
                a;
                b;
                locks_a = SS.elements la;
                locks_b = SS.elements lb;
              }
              :: !cands
          end
        end
      end
    done
  done;
  let candidates =
    List.sort
      (fun c1 c2 ->
        compare
          (c1.region, c1.a.Callgraph.sid, c1.b.Callgraph.sid)
          (c2.region, c2.a.Callgraph.sid, c2.b.Callgraph.sid))
      !cands
  in
  { graph; locksets; candidates }

let candidates r = r.candidates

let suspect_sids r =
  List.sort_uniq compare
    (List.concat_map
       (fun c -> [ c.a.Callgraph.sid; c.b.Callgraph.sid ])
       r.candidates)

let pp_candidate ppf c =
  let locks = function
    | [] -> "{}"
    | ls -> "{" ^ String.concat "," ls ^ "}"
  in
  Fmt.pf ppf "@[race %s: %a %s  ~  %a %s@]" c.region Callgraph.pp_access c.a
    (locks c.locks_a) Callgraph.pp_access c.b (locks c.locks_b)
