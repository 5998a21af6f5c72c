open Mvm
open Mvm.Ast
module P = Ddet_analysis.Plane

(* Static control/data-plane classification: a taint-weight fixpoint with
   zero training runs.

   Every value is abstracted by the largest number of input-derived bytes
   it can carry: an [Input] on channel [ch] produces W(ch) = the maximum
   [Value.size_bytes] over ch's declared domain; weights propagate through
   assignments, shared regions, message channels, call arguments and
   returns with join = max; [Arr_len] drops taint and [Str_len] keeps it,
   mirroring the interpreter's dynamic taint rules. A function's weight is
   the largest weight crossing any of its event-emitting sites — the
   static analogue of the dynamic per-function data *rate* — and
   functions strictly above [threshold_bytes] are data-plane. The strict
   comparison matches [Plane.classify]: on a tie both classifiers fall
   back to Control, the conservative plane (control-plane code is what
   RCSE records precisely). *)

type weights = {
  funcs : (string * int) list;  (* per-function site weight, sorted *)
  threshold_bytes : int;
}

let default_threshold = 32

let input_weight prog ch =
  match domain_of prog ch with
  | None | Some [] -> 8
  | Some vs -> List.fold_left (fun w v -> max w (Value.size_bytes v)) 0 vs

let analyze ?(threshold_bytes = default_threshold) prog =
  (* join-semilattice state, all bottom (0) initially *)
  let vars : (string * string, int) Hashtbl.t = Hashtbl.create 64 in
  let regions : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let chans : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let returns : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let changed = ref true in
  let get tbl k = Option.value ~default:0 (Hashtbl.find_opt tbl k) in
  let joins tbl k w =
    if w > get tbl k then begin
      Hashtbl.replace tbl k w;
      changed := true
    end
  in
  let rec expr_w fname = function
    | Const _ | Arr_len _ -> 0
    | Var x -> get vars (fname, x)
    | Load_scalar r -> get regions r
    | Load (r, _) -> get regions r
    | Binop (_, a, b) -> max (expr_w fname a) (expr_w fname b)
    | Unop (_, e) -> expr_w fname e
  in
  let params_of fn =
    match find_func prog fn with Some f -> f.params | None -> []
  in
  let transfer fname (s : stmt) =
    match s.node with
    | Assign (x, e) -> joins vars (fname, x) (expr_w fname e)
    | Input (x, ch) -> joins vars (fname, x) (input_weight prog ch)
    | Store (r, _, e) | Store_scalar (r, e) -> joins regions r (expr_w fname e)
    | Send (ch, e) -> joins chans ch (expr_w fname e)
    | Recv (x, ch) -> joins vars (fname, x) (get chans ch)
    | Try_recv (_, x, ch) -> joins vars (fname, x) (get chans ch)
    | Return e -> joins returns fname (expr_w fname e)
    | Spawn (fn, args) | Call (_, fn, args) ->
      List.iteri
        (fun i p ->
          match List.nth_opt args i with
          | Some a -> joins vars (fn, p) (expr_w fname a)
          | None -> ())
        (params_of fn);
      (match s.node with
      | Call (Some x, fn, _) -> joins vars (fname, x) (get returns fn)
      | _ -> ())
    | Skip | Output _ | If _ | While _ | Lock _ | Unlock _ | Assert _ | Fail _
    | Yield | Atomic _ ->
      ()
  in
  while !changed do
    changed := false;
    fold_stmts (fun () fname s -> transfer fname s) () prog
  done;
  (* a function's weight: the heaviest value crossing any event-emitting
     site in it. [Input] counts the channel's full weight unconditionally
     (In events log whole values, not just tainted bytes). *)
  let site_w fname (s : stmt) =
    let reads e =
      (* weights of the Read events evaluating [e] emits *)
      let rec go acc = function
        | Const _ | Var _ | Arr_len _ -> acc
        | Load_scalar r -> max acc (get regions r)
        | Load (r, i) -> go (max acc (get regions r)) i
        | Binop (_, a, b) -> go (go acc a) b
        | Unop (_, e) -> go acc e
      in
      go 0 e
    in
    match s.node with
    | Input (_, ch) -> input_weight prog ch
    | Assign (_, e) | Assert (e, _) -> reads e
    | Output (_, e) | Send (_, e) -> max (reads e) (expr_w fname e)
    | Store (_, i, e) -> max (max (reads i) (reads e)) (expr_w fname e)
    | Store_scalar (_, e) -> max (reads e) (expr_w fname e)
    | Return e -> reads e
    | If (c, _, _) | While (c, _) -> reads c
    | Recv (_, ch) | Try_recv (_, _, ch) -> get chans ch
    | Spawn (_, args) | Call (_, _, args) ->
      List.fold_left (fun w a -> max w (reads a)) 0 args
    | Skip | Lock _ | Unlock _ | Fail _ | Yield | Atomic _ -> 0
  in
  let fw : (string, int) Hashtbl.t = Hashtbl.create 16 in
  fold_stmts
    (fun () fname s ->
      let w = site_w fname s in
      if w > get fw fname then Hashtbl.replace fw fname w)
    () prog;
  let funcs =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (f : func) -> (f.fname, get fw f.fname)) prog.funcs)
  in
  { funcs; threshold_bytes }

let weights w = w.funcs

let classify ?threshold_bytes prog =
  let w = analyze ?threshold_bytes prog in
  P.of_assoc
    (List.map
       (fun (fname, wt) ->
         (fname, if wt > w.threshold_bytes then P.Data else P.Control))
       w.funcs)
