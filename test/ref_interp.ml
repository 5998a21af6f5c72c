(* The reference interpreter: a direct walk over the AST, the
   differential reference for [Interp]. The library's interpreter must
   give the same status, steps, events, outputs and failure on every
   program and world.

   The walker executes statement lists, keeps locals in per-frame
   hashtables, looks functions up by name and creates channels on first
   use. It has no candidate cache: the scheduling candidates are
   recomputed from the thread table before every step, so parity checks
   the compiled interpreter's patched cache against plain
   recompute-every-step semantics. *)

open Mvm
open Ast

(* Shared memory: the scalar and array regions threads race on. *)
module Memory = struct
  type t = {
    scalars : (string, Value.tagged ref) Hashtbl.t;
    arrays : (string, Value.tagged array) Hashtbl.t;
  }

  exception Bounds of { region : string; index : int; length : int }

  let create decls =
    let t = { scalars = Hashtbl.create 16; arrays = Hashtbl.create 16 } in
    List.iter
      (function
        | Scalar_decl (r, v) ->
          Hashtbl.replace t.scalars r (ref (Value.untainted v))
        | Array_decl (r, n, v) ->
          Hashtbl.replace t.arrays r (Array.make n (Value.untainted v)))
      decls;
    t

  let scalar_ref t r =
    match Hashtbl.find_opt t.scalars r with
    | Some cell -> cell
    | None -> invalid_arg ("Memory: undeclared scalar region " ^ r)

  let arr t r =
    match Hashtbl.find_opt t.arrays r with
    | Some a -> a
    | None -> invalid_arg ("Memory: undeclared array region " ^ r)

  let load t r = !(scalar_ref t r)
  let store t r v = scalar_ref t r := v

  let check_bounds region a index =
    let length = Array.length a in
    if index < 0 || index >= length then raise (Bounds { region; index; length })

  let load_arr t r i =
    let a = arr t r in
    check_bounds r a i;
    a.(i)

  let store_arr t r i v =
    let a = arr t r in
    check_bounds r a i;
    a.(i) <- v

  let arr_length t r = Array.length (arr t r)
end

(* FIFO message channels, created on first use. *)
module Channel = struct
  type t = (string, Value.tagged Queue.t) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let queue t chan =
    match Hashtbl.find_opt t chan with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t chan q;
      q

  let send t chan v = Queue.push v (queue t chan)

  let recv t chan =
    let q = queue t chan in
    if Queue.is_empty q then None else Some (Queue.pop q)

  let is_empty t chan =
    match Hashtbl.find_opt t chan with
    | None -> true
    | Some q -> Queue.is_empty q
end

type frame = {
  fname : string;
  locals : (string, Value.tagged) Hashtbl.t;
  mutable rest : stmt list;
  dest : string option;
}

type thread = { tid : int; mutable frames : frame list }

exception Crash_exn of string
exception Crash_at of int * string
exception Abort_exn of string

let atomic_budget = 10_000

let binop_apply op (a : Value.tagged) (b : Value.tagged) =
  let taint = Taint.union a.Value.taint b.Value.taint in
  let open Value in
  let iv f = tag (int (f (as_int a.v) (as_int b.v))) taint in
  let bv f = tag (bool (f (as_int a.v) (as_int b.v))) taint in
  let lv f = tag (bool (f (as_bool a.v) (as_bool b.v))) taint in
  match op with
  | Add -> iv ( + )
  | Sub -> iv ( - )
  | Mul -> iv ( * )
  | Div ->
    if as_int b.v = 0 then raise (Crash_exn "division by zero") else iv ( / )
  | Mod ->
    if as_int b.v = 0 then raise (Crash_exn "modulo by zero") else iv ( mod )
  | Min -> iv min
  | Max -> iv max
  | Lt -> bv ( < )
  | Le -> bv ( <= )
  | Gt -> bv ( > )
  | Ge -> bv ( >= )
  | Eq -> tag (bool (equal a.v b.v)) taint
  | Ne -> tag (bool (not (equal a.v b.v))) taint
  | And -> lv ( && )
  | Or -> lv ( || )
  | Concat -> tag (str (as_str a.v ^ as_str b.v)) taint

let unop_apply op (a : Value.tagged) =
  let open Value in
  match op with
  | Not -> tag (bool (not (as_bool a.v))) a.taint
  | Neg -> tag (int (-as_int a.v)) a.taint
  | Str_len -> tag (int (String.length (as_str a.v))) a.taint

let run ?(max_steps = 200_000) ?(monitors = []) ?abort ?cancel
    (labeled : Label.labeled) (world : World.t) : Interp.result =
  let prog = labeled.Label.prog in
  let mem = Memory.create prog.regions in
  let chans = Channel.create () in
  let locks : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let trace = Trace.create () in
  let threads : thread Vec.t = Vec.create () in
  let step_count = ref 0 in

  let emit ~tid ~sid ~fname kind =
    let e = { Event.step = !step_count; tid; sid; fname; kind } in
    Trace.append trace e;
    List.iter (fun m -> m e) monitors;
    match abort with
    | None -> ()
    | Some check -> (
      match check e with None -> () | Some reason -> raise (Abort_exn reason))
  in

  let make_frame fn_name dest argv =
    match find_func prog fn_name with
    | None -> raise (Crash_exn ("undefined function " ^ fn_name))
    | Some f ->
      if List.length f.params <> List.length argv then
        raise
          (Crash_exn
             (Printf.sprintf "%s expects %d arguments, got %d" fn_name
                (List.length f.params) (List.length argv)));
      let locals = Hashtbl.create 8 in
      List.iter2 (fun p a -> Hashtbl.replace locals p a) f.params argv;
      { fname = f.fname; locals; rest = f.body; dest }
  in

  let spawn_thread fn_name argv =
    let tid = Vec.length threads in
    let frame = make_frame fn_name None argv in
    Vec.push threads { tid; frames = [ frame ] };
    tid
  in

  ignore (spawn_thread prog.main []);

  (* Implicit returns: pop frames whose statements are exhausted, binding
     unit to the caller's destination variable, until the next statement (if
     any) is exposed. *)
  let rec normalize th =
    match th.frames with
    | [] -> ()
    | f :: callers -> (
      match f.rest with
      | _ :: _ -> ()
      | [] ->
        th.frames <- callers;
        (match callers, f.dest with
        | caller :: _, Some x ->
          Hashtbl.replace caller.locals x (Value.untainted Value.unit)
        | _, _ -> ());
        normalize th)
  in

  let next_stmt th =
    normalize th;
    match th.frames with
    | [] -> None
    | f :: _ -> ( match f.rest with [] -> None | s :: _ -> Some s)
  in

  let lock_owner m = Hashtbl.find_opt locks m in

  (* A thread is a scheduling candidate iff its next statement can execute
     now. The world is asked about every blocked receive at every step,
     whatever its forcing promise. *)
  let executable tid s =
    match s.node with
    | Recv (_, ch) ->
      not (Channel.is_empty chans ch)
      || (match
            world.World.on_try_recv ~step:!step_count ~tid ~sid:s.sid ~chan:ch
          with
         | World.Force_value _ -> true
         | World.Force_fail | World.Default -> false)
    | Lock m -> ( match lock_owner m with None -> true | Some o -> o = tid)
    | Skip | Assign _ | Store _ | Store_scalar _ | If _ | While _ | Input _
    | Output _ | Send _ | Try_recv _ | Unlock _ | Spawn _ | Call _ | Return _
    | Assert _ | Fail _ | Yield | Atomic _ ->
      true
  in

  let candidates () =
    Vec.fold
      (fun acc th ->
        match next_stmt th with
        | Some s when executable th.tid s ->
          World.cand ~tid:th.tid ~sid:s.sid ~fname:(List.hd th.frames).fname
          :: acc
        | _ -> acc)
      [] threads
    |> List.rev
  in

  let rec eval th ~sid ~fname e =
    match e with
    | Const v -> Value.untainted v
    | Var x -> (
      match th.frames with
      | [] -> raise (Crash_exn "no frame")
      | f :: _ -> (
        match Hashtbl.find_opt f.locals x with
        | Some v -> v
        | None -> raise (Crash_exn ("unbound variable " ^ x))))
    | Load_scalar r ->
      let actual = Memory.load mem r in
      let v =
        world.World.on_read ~step:!step_count ~tid:th.tid ~sid ~region:r
          ~index:None ~actual
      in
      emit ~tid:th.tid ~sid ~fname (Event.Read { region = r; index = None; value = v });
      v
    | Load (r, ie) -> (
      let i = Value.as_int (eval th ~sid ~fname ie).Value.v in
      match Memory.load_arr mem r i with
      | actual ->
        let v =
          world.World.on_read ~step:!step_count ~tid:th.tid ~sid ~region:r
            ~index:(Some i) ~actual
        in
        emit ~tid:th.tid ~sid ~fname
          (Event.Read { region = r; index = Some i; value = v });
        v
      | exception Memory.Bounds { region; index; length } ->
        raise
          (Crash_exn
             (Printf.sprintf "array %s index %d out of bounds (length %d)" region
                index length)))
    | Arr_len r -> Value.untainted (Value.int (Memory.arr_length mem r))
    | Binop (op, a, b) ->
      let va = eval th ~sid ~fname a in
      let vb = eval th ~sid ~fname b in
      binop_apply op va vb
    | Unop (op, a) -> unop_apply op (eval th ~sid ~fname a)
  in

  let set_local th x v =
    match th.frames with
    | [] -> raise (Crash_exn "no frame")
    | f :: _ -> Hashtbl.replace f.locals x v
  in

  let pop_stmt th =
    match th.frames with
    | { rest = _ :: tail; _ } as f :: _ -> f.rest <- tail
    | _ -> assert false
  in

  let push_stmts th stmts =
    match th.frames with
    | f :: _ -> f.rest <- stmts @ f.rest
    | [] -> assert false
  in

  (* [atomic] (a step budget) forbids operations that could block or grow
     the frame stack mid-step; atomic blocks are for small read-modify-write
     sequences. *)
  let rec exec_node th ~atomic (s : stmt) =
    let in_atomic = Option.is_some atomic in
    (match atomic with
    | Some b ->
      decr b;
      if !b <= 0 then raise (Crash_exn "atomic budget exhausted")
    | None -> ());
    let sid = s.sid in
    let fname = match th.frames with f :: _ -> f.fname | [] -> "?" in
    let ev k = emit ~tid:th.tid ~sid ~fname k in
    let eval_ e = eval th ~sid ~fname e in
    match s.node with
    | Skip | Yield -> ()
    | Assign (x, e) -> set_local th x (eval_ e)
    | Store (r, ie, e) -> (
      let i = Value.as_int (eval_ ie).Value.v in
      let v = eval_ e in
      match Memory.store_arr mem r i v with
      | () -> ev (Event.Write { region = r; index = Some i; value = v })
      | exception Memory.Bounds { region; index; length } ->
        raise
          (Crash_exn
             (Printf.sprintf "array %s index %d out of bounds (length %d)" region
                index length)))
    | Store_scalar (r, e) ->
      let v = eval_ e in
      Memory.store mem r v;
      ev (Event.Write { region = r; index = None; value = v })
    | If (c, b1, b2) ->
      let cond = Value.as_bool (eval_ c).Value.v in
      if in_atomic then exec_block th ~atomic (if cond then b1 else b2)
      else push_stmts th (if cond then b1 else b2)
    | While (c, body) ->
      let cond = Value.as_bool (eval_ c).Value.v in
      if in_atomic then (
        if cond then (
          exec_block th ~atomic body;
          exec_node th ~atomic s))
      else if cond then push_stmts th (body @ [ s ])
    | Input (x, ch) ->
      let domain = Option.value ~default:[] (domain_of prog ch) in
      let v0 =
        world.World.pick_input ~step:!step_count ~tid:th.tid ~chan:ch ~domain
      in
      let v = Value.tag v0 (Taint.singleton ch) in
      set_local th x v;
      ev (Event.In { chan = ch; value = v })
    | Output (ch, e) ->
      let v = eval_ e in
      ev (Event.Out { chan = ch; value = v })
    | Send (ch, e) ->
      let v = eval_ e in
      Channel.send chans ch v;
      ev (Event.Msg_send { chan = ch; value = v })
    | Recv (x, ch) -> (
      match Channel.recv chans ch with
      | Some actual ->
        let v =
          world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
            ~actual
        in
        set_local th x v;
        ev (Event.Msg_recv { chan = ch; value = v })
      | None -> (
        (* empty queue: only runnable when an oracle feeds the value *)
        match
          world.World.on_try_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
        with
        | World.Force_value forced ->
          let v =
            world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
              ~actual:forced
          in
          set_local th x v;
          ev (Event.Msg_recv { chan = ch; value = v })
        | World.Force_fail | World.Default ->
          raise (Crash_exn ("recv on empty channel " ^ ch ^ " inside atomic"))))
    | Try_recv (ok, x, ch) -> (
      let succeed v =
        set_local th ok (Value.untainted (Value.bool true));
        set_local th x v;
        ev (Event.Msg_recv { chan = ch; value = v })
      in
      let miss () =
        set_local th ok (Value.untainted (Value.bool false));
        set_local th x (Value.untainted Value.unit)
      in
      match
        world.World.on_try_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
      with
      | World.Force_fail -> miss ()
      | World.Force_value forced ->
        (* the forced success stands for a real message: consume the
           physical head if one is there, and let on_recv (the stateful
           oracle) supply the observed value *)
        ignore (Channel.recv chans ch);
        succeed
          (world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
             ~actual:forced)
      | World.Default -> (
        match Channel.recv chans ch with
        | Some actual ->
          succeed
            (world.World.on_recv ~step:!step_count ~tid:th.tid ~sid ~chan:ch
               ~actual)
        | None -> miss ()))
    | Lock m -> (
      match lock_owner m with
      | Some o when o = th.tid -> raise (Crash_exn ("relock of mutex " ^ m))
      | Some _ -> raise (Crash_exn ("lock contention on " ^ m ^ " inside atomic"))
      | None ->
        Hashtbl.replace locks m th.tid;
        ev (Event.Lock_acq m))
    | Unlock m -> (
      match lock_owner m with
      | Some o when o = th.tid ->
        Hashtbl.remove locks m;
        ev (Event.Lock_rel m)
      | Some _ | None -> raise (Crash_exn ("unlock of mutex " ^ m ^ " not held")))
    | Spawn (fn, args) ->
      if in_atomic then raise (Crash_exn "spawn inside atomic");
      let argv = List.map eval_ args in
      let child = spawn_thread fn argv in
      ev (Event.Spawned { child; fname = fn })
    | Call (dest, fn, args) ->
      if in_atomic then raise (Crash_exn "call inside atomic");
      let argv = List.map eval_ args in
      let frame = make_frame fn dest argv in
      th.frames <- frame :: th.frames
    | Return e ->
      if in_atomic then raise (Crash_exn "return inside atomic");
      let v = eval_ e in
      (match th.frames with
      | f :: callers ->
        th.frames <- callers;
        (match callers, f.dest with
        | caller :: _, Some x -> Hashtbl.replace caller.locals x v
        | _, _ -> ())
      | [] -> raise (Crash_exn "return without frame"))
    | Assert (e, msg) ->
      if not (Value.as_bool (eval_ e).Value.v) then
        raise (Crash_exn ("assertion failed: " ^ msg))
    | Fail msg -> raise (Crash_exn msg)
    | Atomic body ->
      let atomic =
        match atomic with Some _ -> atomic | None -> Some (ref atomic_budget)
      in
      exec_block th ~atomic body

  and exec_block th ~atomic body = List.iter (exec_node th ~atomic) body in

  let exec_step th =
    match next_stmt th with
    | None -> assert false
    | Some s -> (
      let fname = match th.frames with f :: _ -> f.fname | [] -> "?" in
      emit ~tid:th.tid ~sid:s.sid ~fname Event.Step;
      pop_stmt th;
      try exec_node th ~atomic:None s with
      | Crash_exn msg ->
        emit ~tid:th.tid ~sid:s.sid ~fname (Event.Crashed msg);
        raise (Crash_at (s.sid, msg))
      | Value.Type_error msg ->
        emit ~tid:th.tid ~sid:s.sid ~fname (Event.Crashed msg);
        raise (Crash_at (s.sid, msg)))
  in

  let finish status : Interp.result =
    let failure =
      match status with
      | Interp.Crashed f -> Some f
      | Deadlock | Step_limit -> Some Failure.Hang
      | Done | Aborted _ -> None
    in
    { status; trace; steps = !step_count; outputs = Trace.outputs trace; failure }
  in

  (* [cancel] is polled every 128 steps, as the library interpreter
     polls it. *)
  let cancelled () =
    match cancel with
    | Some check when !step_count land 127 = 0 -> check ()
    | _ -> None
  in
  let rec loop () =
    if !step_count >= max_steps then finish Step_limit
    else
      match cancelled () with
      | Some reason -> finish (Aborted reason)
      | None -> (
      match candidates () with
      | [] ->
        let alive = Vec.exists (fun th -> th.frames <> []) threads in
        if alive then finish Deadlock else finish Done
      | cands -> (
        let tid = world.World.pick_thread ~step:!step_count cands in
        match Vec.get threads tid with
        | exception Invalid_argument _ ->
          invalid_arg "Interp: world picked an unknown thread"
        | th ->
          if not (List.exists (fun c -> c.World.tid = tid) cands) then
            invalid_arg "Interp: world picked a non-candidate thread";
          exec_step th;
          incr step_count;
          loop ()))
  in
  try loop () with
  | Crash_at (sid, msg) -> finish (Crashed (Failure.Crash { sid; msg }))
  | Abort_exn reason -> finish (Aborted reason)
