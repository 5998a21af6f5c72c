open Ast

type status =
  | Done
  | Crashed of Failure.t
  | Deadlock
  | Step_limit
  | Aborted of string

type result = {
  status : status;
  trace : Trace.t;
  steps : int;
  outputs : (string * Value.t list) list;
  failure : Failure.t option;
}

let status_to_string = function
  | Done -> "done"
  | Crashed f -> "crashed: " ^ Failure.to_string f
  | Deadlock -> "deadlock"
  | Step_limit -> "step-limit"
  | Aborted reason -> "aborted: " ^ reason

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

(* ------------------------------------------------------------------ *)
(* Compiled form.                                                     *)
(*                                                                    *)
(* Recording, replay and search all execute through this one          *)
(* interpreter. Work that never changes between steps — function      *)
(* lookup by name, local-variable lookup, block entry, input-domain   *)
(* lookups, taint-set construction — is done once by [compile], which *)
(* lowers each function body to a flat instruction array with         *)
(* pre-resolved jump targets, integer local slots, integer region ids *)
(* and pre-resolved callees; [run_compiled] executes the small-step   *)
(* semantics over that form. An atomic body sits inline right after   *)
(* its [O_atomic] marker and runs to the marker's end within one      *)
(* scheduler step, through the same [exec_op] as every other step.    *)
(* ------------------------------------------------------------------ *)

type cexpr =
  | C_const of Value.tagged
  | C_var of int
  | C_load of int * cexpr
  | C_load_scalar of int
  | C_arr_len of int
  | C_binop of binop * cexpr * cexpr
  | C_unop of unop * cexpr

(* Call targets resolve at compile time; a bad one (unknown function,
   arity mismatch) still crashes at execution time, after argument
   evaluation, so a run that never reaches the call is unaffected. *)
type callee = Callee of int | Callee_bad of string

type op =
  | O_skip
  | O_assign of int * cexpr
  | O_store of int * cexpr * cexpr
  | O_store_scalar of int * cexpr
  | O_br of cexpr * int  (* If: false jumps to target, true falls through *)
  | O_while of cexpr * int  (* false jumps past the loop, true falls through *)
  | O_jmp of int  (* silent control transfer: never a step, never an event *)
  | O_input of int * string * Value.t list * Taint.t
  | O_output of int * cexpr  (* interned output channel *)
  | O_send of int * cexpr  (* message channels and locks are interned: *)
  | O_recv of int * int  (* their names appear only as statement      *)
  | O_try_recv of int * int * int  (* literals, so every queue/owner lookup  *)
  | O_lock of int  (* is an array index instead of a string hash      *)
  | O_unlock of int
  | O_spawn of callee * string * cexpr array
  | O_call of int * callee * cexpr array  (* dest slot in caller, or -1 *)
  | O_return of cexpr
  | O_assert of cexpr * string
  | O_fail of string
  | O_atomic of int  (* the end of the body that follows inline *)

type instr = { i_sid : int; i_op : op }

type cfunc = {
  cf_name : string;
  cf_nslots : int;
  cf_slot_names : string array;
  mutable cf_code : instr array;
}

type compiled = {
  c_funcs : cfunc array;
  c_main : callee;
  c_scalar_names : string array;
  c_scalar_init : Value.tagged array;
  c_array_names : string array;
  c_array_init : Value.tagged array;
  c_array_len : int array;
  c_chan_names : string array;  (* interned Send/Recv/Try_recv channels *)
  c_lock_names : string array;  (* interned mutex names *)
  c_out_names : string array;  (* interned Output channels *)
  c_out_sorted : int array;  (* output channel ids in name order *)
}

let lower (labeled : Label.labeled) : compiled =
  let prog = labeled.Label.prog in
  (* Regions: last declaration of a name wins. *)
  let sc_ids = Hashtbl.create 16 and ar_ids = Hashtbl.create 16 in
  let sc = Vec.create () and ar = Vec.create () in
  List.iter
    (function
      | Scalar_decl (r, v) -> (
        let init = Value.untainted v in
        match Hashtbl.find_opt sc_ids r with
        | Some i -> (Vec.get sc i) := init
        | None ->
          Hashtbl.replace sc_ids r (Vec.length sc);
          Vec.push sc (ref init))
      | Array_decl (r, n, v) -> (
        let init = Value.untainted v in
        match Hashtbl.find_opt ar_ids r with
        | Some i -> (Vec.get ar i) := (n, init)
        | None ->
          Hashtbl.replace ar_ids r (Vec.length ar);
          Vec.push ar (ref (n, init))))
    prog.regions;
  let scalar_id r =
    match Hashtbl.find_opt sc_ids r with
    | Some i -> i
    | None -> invalid_arg ("Interp.compile: undeclared scalar region " ^ r)
  in
  let array_id r =
    match Hashtbl.find_opt ar_ids r with
    | Some i -> i
    | None -> invalid_arg ("Interp.compile: undeclared array region " ^ r)
  in
  let inv_names ids n =
    let a = Array.make n "" in
    Hashtbl.iter (fun r i -> a.(i) <- r) ids;
    a
  in
  (* Message channels and mutexes: every name is a statement literal, so
     the whole name space is known at compile time and can be interned.
     Queues are created up front, one per interned name; an untouched
     queue is simply empty. *)
  let ch_ids = Hashtbl.create 16 and lk_ids = Hashtbl.create 16 in
  let out_ids = Hashtbl.create 16 in
  let intern ids r =
    match Hashtbl.find_opt ids r with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids r i;
      i
  in
  let chan_id ch = intern ch_ids ch in
  let lock_id m = intern lk_ids m in
  let out_id ch = intern out_ids ch in
  (* Functions: first declaration of a name wins, as in [find_func]. *)
  let fn_ids = Hashtbl.create 16 in
  let fn_arr = Array.of_list prog.funcs in
  Array.iteri
    (fun i (f : func) ->
      if not (Hashtbl.mem fn_ids f.fname) then Hashtbl.replace fn_ids f.fname i)
    fn_arr;
  let resolve_callee fn nargs =
    match Hashtbl.find_opt fn_ids fn with
    | None -> Callee_bad ("undefined function " ^ fn)
    | Some i ->
      let np = List.length fn_arr.(i).params in
      if np <> nargs then
        Callee_bad
          (Printf.sprintf "%s expects %d arguments, got %d" fn np nargs)
      else Callee i
  in
  let cfuncs =
    Array.map
      (fun (f : func) ->
        {
          cf_name = f.fname;
          cf_nslots = 0;
          cf_slot_names = [||];
          cf_code = [||];
        })
      fn_arr
  in
  let compile_func fi (f : func) =
    let slots = Hashtbl.create 16 in
    let names = Vec.create () in
    let slot x =
      match Hashtbl.find_opt slots x with
      | Some i -> i
      | None ->
        let i = Vec.length names in
        Hashtbl.replace slots x i;
        Vec.push names x;
        i
    in
    List.iter (fun p -> ignore (slot p)) f.params;
    let rec cexpr = function
      | Const v -> C_const (Value.untainted v)
      | Var x -> C_var (slot x)
      | Load (r, e) -> C_load (array_id r, cexpr e)
      | Load_scalar r -> C_load_scalar (scalar_id r)
      | Arr_len r -> C_arr_len (array_id r)
      | Binop (op, a, b) ->
        let ca = cexpr a in
        let cb = cexpr b in
        C_binop (op, ca, cb)
      | Unop (op, a) -> C_unop (op, cexpr a)
    in
    let input_parts ch =
      let domain = Option.value ~default:[] (domain_of prog ch) in
      (ch, domain, Taint.singleton ch)
    in
    let rec stmt_size (s : stmt) =
      match s.node with
      | If (_, b1, b2) -> 2 + block_size b1 + block_size b2
      | While (_, b) -> 2 + block_size b
      | Atomic b -> 1 + block_size b
      | Skip | Assign _ | Store _ | Store_scalar _ | Input _ | Output _
      | Send _ | Recv _ | Try_recv _ | Lock _ | Unlock _ | Spawn _ | Call _
      | Return _ | Assert _ | Fail _ | Yield ->
        1
    and block_size b = List.fold_left (fun n s -> n + stmt_size s) 0 b in
    let n = block_size f.body in
    let code = Array.make (max n 1) { i_sid = 0; i_op = O_skip } in
    let pos = ref 0 in
    let push sid op =
      code.(!pos) <- { i_sid = sid; i_op = op };
      incr pos
    in
    (* An atomic body runs within one scheduler step ([exec_atomic]):
       inside it, what could grow or pop the frame stack crashes. *)
    let rec cstmt ~atomic (s : stmt) =
      let sid = s.sid in
      match s.node with
      | (Spawn _ | Call _ | Return _) when atomic ->
        push sid (O_fail (node_kind s.node ^ " inside atomic"))
      | Skip | Yield -> push sid O_skip
      | Assign (x, e) ->
        let xs = slot x in
        push sid (O_assign (xs, cexpr e))
      | Store (r, ie, e) ->
        let rid = array_id r in
        let ci = cexpr ie in
        push sid (O_store (rid, ci, cexpr e))
      | Store_scalar (r, e) -> push sid (O_store_scalar (scalar_id r, cexpr e))
      | If (c, b1, b2) ->
        let cc = cexpr c in
        let p = !pos in
        incr pos;
        cblock ~atomic b1;
        let q = !pos in
        incr pos;
        let elsep = !pos in
        cblock ~atomic b2;
        let endp = !pos in
        code.(p) <- { i_sid = sid; i_op = O_br (cc, elsep) };
        code.(q) <- { i_sid = sid; i_op = O_jmp endp }
      | While (c, b) ->
        let cc = cexpr c in
        let p = !pos in
        incr pos;
        cblock ~atomic b;
        let q = !pos in
        incr pos;
        let exitp = !pos in
        code.(p) <- { i_sid = sid; i_op = O_while (cc, exitp) };
        code.(q) <- { i_sid = sid; i_op = O_jmp p }
      | Input (x, ch) ->
        let xs = slot x in
        let ch, domain, taint = input_parts ch in
        push sid (O_input (xs, ch, domain, taint))
      | Output (ch, e) -> push sid (O_output (out_id ch, cexpr e))
      | Send (ch, e) -> push sid (O_send (chan_id ch, cexpr e))
      | Recv (x, ch) -> push sid (O_recv (slot x, chan_id ch))
      | Try_recv (ok, x, ch) ->
        let oks = slot ok in
        push sid (O_try_recv (oks, slot x, chan_id ch))
      | Lock m -> push sid (O_lock (lock_id m))
      | Unlock m -> push sid (O_unlock (lock_id m))
      | Spawn (fn, args) ->
        let cargs = Array.of_list (List.map cexpr args) in
        push sid (O_spawn (resolve_callee fn (Array.length cargs), fn, cargs))
      | Call (dest, fn, args) ->
        let d = match dest with None -> -1 | Some x -> slot x in
        let cargs = Array.of_list (List.map cexpr args) in
        push sid (O_call (d, resolve_callee fn (Array.length cargs), cargs))
      | Return e -> push sid (O_return (cexpr e))
      | Assert (e, msg) -> push sid (O_assert (cexpr e, msg))
      | Fail msg -> push sid (O_fail msg)
      | Atomic b ->
        let p = !pos in
        incr pos;
        cblock ~atomic:true b;
        code.(p) <- { i_sid = sid; i_op = O_atomic !pos }
    and cblock ~atomic b = List.iter (cstmt ~atomic) b in
    cblock ~atomic:false f.body;
    let cf = cfuncs.(fi) in
    cf.cf_code <- Array.sub code 0 n;
    {
      cf with
      cf_nslots = Vec.length names;
      cf_slot_names = Array.of_list (Vec.to_list names);
    }
  in
  Array.iteri (fun i f -> cfuncs.(i) <- compile_func i f) fn_arr;
  let out_names = inv_names out_ids (Hashtbl.length out_ids) in
  let out_sorted = Array.init (Array.length out_names) Fun.id in
  Array.stable_sort
    (fun a b -> String.compare out_names.(a) out_names.(b))
    out_sorted;
  {
    c_funcs = cfuncs;
    c_main = resolve_callee prog.main 0;
    c_scalar_names = inv_names sc_ids (Vec.length sc);
    c_scalar_init =
      Array.init (Vec.length sc) (fun i -> !(Vec.get sc i));
    c_array_names = inv_names ar_ids (Vec.length ar);
    c_array_init =
      Array.init (Vec.length ar) (fun i -> snd !(Vec.get ar i));
    c_array_len = Array.init (Vec.length ar) (fun i -> fst !(Vec.get ar i));
    c_chan_names = inv_names ch_ids (Hashtbl.length ch_ids);
    c_lock_names = inv_names lk_ids (Hashtbl.length lk_ids);
    c_out_names = out_names;
    c_out_sorted = out_sorted;
  }

(* Each domain keeps the programs it compiled last, most recently used
   first, keyed on the labelled program's physical identity: a session
   runs one program for its production run, its recording and its
   replay, and a benchmark mix alternates between a few, so each is
   lowered once per domain and every run pays the same. The list is
   bounded by a constant and belongs to one domain, so it needs no lock
   and cannot grow with the programs a test generates. *)
let cache_size = 8

let compiled_cache : (Label.labeled * compiled) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let compile labeled =
  let cache = Domain.DLS.get compiled_cache in
  match !cache with
  | (l, c) :: _ when l == labeled -> c
  | entries -> (
    match List.find_opt (fun (l, _) -> l == labeled) entries with
    | Some ((_, c) as hit) ->
      cache := hit :: List.filter (fun e -> e != hit) entries;
      c
    | None ->
      let c = lower labeled in
      cache := (labeled, c) :: List.filteri (fun i _ -> i < cache_size - 1) entries;
      c)

(* A slot never assigned holds this sentinel; reading it is the
   "unbound variable" crash. The test is physical equality, so the
   sentinel must be a block no stored value can share. A literal
   [{ v = unit; taint = empty }] is not: when cross-module inlining is on
   (a release build, no [-opaque]), the [Value.untainted Value.unit] that
   a missed [try_recv] or an implicit return stores becomes the same
   static constant, and reading it back would crash. [opaque_identity]
   keeps the compiler from folding this one into a constant, so it is
   allocated once at start-up, and [ceval] never hands it out. *)
let unbound : Value.tagged =
  Value.tag Value.unit (Sys.opaque_identity Taint.empty)

(* "No next instruction" sentinel, compared physically: a finished
   thread's [c_next]. Real [O_jmp] instructions are consumed inside
   [resolve_frame], so the sentinel can never be confused with one. *)
let no_instr : instr = { i_sid = -1; i_op = O_jmp (-1) }

type cframe = {
  c_fn : cfunc;
  c_locals : Value.tagged array;
  mutable c_pc : int;
  c_dest : int;  (* slot in the caller's frame, or -1 *)
}

(* A thread's next instruction and its scheduling candidate are resolved
   once, right after it steps or is spawned ([refresh]): the step loop,
   the candidate set and the next step read them without walking the
   frame stack. [c_cand] is the one candidate record the thread ever
   has; [refresh] moves it to [c_next]'s site in place. *)
type cthread = {
  c_tid : int;
  mutable c_frames : cframe list;
  mutable c_next : instr;  (* [no_instr] once the thread has finished *)
  c_cand : World.cand;
}

(* Filler for the thread table's and the candidate array's spare slots:
   never run, never a candidate and never written, so one copy serves
   every run on every domain. *)
let no_cand = World.cand ~tid:(-1) ~sid:(-1) ~fname:""
let no_thread = { c_tid = -1; c_frames = []; c_next = no_instr; c_cand = no_cand }

(* Each run builds its own exec state from the compiled program's
   initial values (19 to 115 minor words on the shipped apps); reusing
   it across runs saved no measurable time (DESIGN §7). *)
let run_compiled ?(max_steps = 200_000) ?(monitors = []) ?abort ?cancel
    (c : compiled) (world : World.t) =
  let scalars = Array.copy c.c_scalar_init in
  let arrays =
    Array.init (Array.length c.c_array_len) (fun i ->
        Array.make c.c_array_len.(i) c.c_array_init.(i))
  in
  (* indexed by interned chan id *)
  let chans =
    Array.init (Array.length c.c_chan_names) (fun _ -> Queue.create ())
  in
  (* owner tid by interned lock id; -1 = free *)
  let locks = Array.make (max 1 (Array.length c.c_lock_names)) (-1) in
  (* The thread table, indexed by tid, and the candidate array the world
     picks from. They grow together, so a rebuild always has room for
     every thread. *)
  let threads = ref (Array.make 8 no_thread) and nthreads = ref 0 in
  let cands = ref (Array.make 8 no_cand) and ncands = ref 0 in
  (* values emitted per interned output channel, latest first *)
  let outs = Array.make (Array.length c.c_out_names) [] in
  let trace = Trace.create () in
  let step_count = ref 0 in

  let rec notify e = function
    | [] -> ()
    | m :: ms ->
      m e;
      notify e ms
  in
  let emit ~tid ~sid ~fname kind =
    let e = { Event.step = !step_count; tid; sid; fname; kind } in
    Trace.append trace e;
    notify e monitors;
    match abort with
    | None -> ()
    | Some check -> (
      match check e with None -> () | Some reason -> raise (Abort_exn reason))
  in

  (* Silent jumps carry no step: resolve them before anything looks at a
     frame's next instruction. Returns [no_instr] (physically) when the
     frame is exhausted. *)
  let rec resolve_frame f =
    if f.c_pc >= Array.length f.c_fn.cf_code then no_instr
    else
      (* indices below are compiler-generated (slots, region/chan/lock
         ids, range-checked pc), so the unchecked accesses cannot fault *)
      match Array.unsafe_get f.c_fn.cf_code f.c_pc with
      | { i_op = O_jmp t; _ } ->
        f.c_pc <- t;
        resolve_frame f
      | i -> i
  in
  (* Resolve the thread's next instruction after it stepped or was
     spawned: implicit returns pop frames whose instructions are
     exhausted, binding unit to the caller's destination slot, until the
     next instruction (if any) is exposed; the candidate record moves to
     its site. Popping eagerly instead of when the scheduler next looks
     is unobservable: only the thread itself reads its frames. *)
  let rec refresh th =
    match th.c_frames with
    | [] -> th.c_next <- no_instr
    | f :: callers ->
      let i = resolve_frame f in
      if i == no_instr then begin
        th.c_frames <- callers;
        (match callers with
        | caller :: _ when f.c_dest >= 0 ->
          caller.c_locals.(f.c_dest) <- Value.untainted Value.unit
        | _ -> ());
        refresh th
      end
      else begin
        th.c_next <- i;
        World.set_site th.c_cand ~sid:i.i_sid ~fname:f.c_fn.cf_name
      end
  in

  let make_cframe cf argv c_dest =
    let c_locals = Array.make (max cf.cf_nslots 1) unbound in
    Array.blit argv 0 c_locals 0 (Array.length argv);
    { c_fn = cf; c_locals; c_pc = 0; c_dest }
  in

  let spawn_cthread callee argv =
    match callee with
    | Callee_bad msg -> raise (Crash_exn msg)
    | Callee i ->
      let tid = !nthreads in
      if tid = Array.length !threads then begin
        let grow a fill =
          let b = Array.make (2 * tid) fill in
          Array.blit a 0 b 0 tid;
          b
        in
        threads := grow !threads no_thread;
        cands := grow !cands no_cand
      end;
      let cf = c.c_funcs.(i) in
      let th =
        {
          c_tid = tid;
          c_frames = [ make_cframe cf argv (-1) ];
          c_next = no_instr;
          c_cand = World.cand ~tid ~sid:(-1) ~fname:cf.cf_name;
        }
      in
      refresh th;
      !threads.(tid) <- th;
      nthreads := tid + 1;
      tid
  in

  ignore (spawn_cthread c.c_main [||]);

  (* The world's forcing promise (World.forcing) decides what the
     candidate set may keep between steps. Under [Never] a blocked
     receive on an empty queue is not runnable whatever [on_try_recv]
     answers, so the hook is not asked about it: skipping the call
     changes no observable answer. Under [Own_steps] and [Anything] it is
     asked; under [Anything] at every probe of every step, because a
     forced receive can wake a thread with no channel operation at all. *)
  let use_cache, ask_blocked =
    match world.World.forcing with
    | World.Never -> (true, false)
    | World.Own_steps -> (true, true)
    | World.Anything -> (false, true)
  in

  (* A thread is a scheduling candidate iff its next instruction can
     execute now; this makes blocked threads invisible to the scheduler
     and turns "no candidates, live threads" into exact deadlock
     detection. *)
  let executable tid (i : instr) =
    match i.i_op with
    | O_recv (_, ch) ->
      (not (Queue.is_empty (Array.unsafe_get chans ch)))
      || (ask_blocked
         &&
         match
           world.World.on_try_recv ~step:!step_count ~tid ~sid:i.i_sid
             ~chan:c.c_chan_names.(ch)
         with
         | World.Force_value _ -> true
         | World.Force_fail | World.Default -> false)
    | O_lock m ->
      let o = Array.unsafe_get locks m in
      o < 0 || o = tid
    | _ -> true
  in

  let runnable th = th.c_next != no_instr && executable th.c_tid th.c_next in

  (* The candidates in thread order, written over the array in place:
     each runnable thread's own record, already at its next site. A slot
     that already holds the record is not written again, which spares the
     write barrier on the common rebuild that finds the set unchanged. *)
  let rebuild_candidates () =
    let ths = !threads and cs = !cands in
    let n = ref 0 in
    for k = 0 to !nthreads - 1 do
      let th = Array.unsafe_get ths k in
      if runnable th then begin
        if Array.unsafe_get cs !n != th.c_cand then
          Array.unsafe_set cs !n th.c_cand;
        incr n
      end
    done;
    ncands := !n
  in

  (* Candidate cache. A purely thread-local instruction can only change
     the executing thread's own entry, and [refresh] has already moved
     that entry's record to the thread's next site, so unless the world
     may force anything (see World.forcing) the cached set changes only
     when the thread no longer runs: it blocked or finished. Any
     instruction that touches channels, locks or the thread table
     invalidates the cache. Under [Own_steps] a blocked receive's forced
     answer can change only through its own thread's steps, so the
     rebuild and the stepping thread's check ask the world
     ([executable]) and every other entry stays exact. Under [Anything]
     the cache is bypassed: a forced receive can wake any thread at any
     step. [candidates ()] is the number of candidates, the first slots
     of [!cands]. *)
  let cache_valid = ref false in
  let candidates () =
    if not use_cache then rebuild_candidates ()
    else if not !cache_valid then begin
      rebuild_candidates ();
      cache_valid := true
    end;
    !ncands
  in

  (* Instructions that cannot affect any OTHER thread's runnability:
     they touch no channel, no lock and spawn nothing. [O_fail] ends the
     run, so its classification never matters; it is kept non-local for
     safety. *)
  let local_op = function
    | O_skip | O_assign _ | O_store _ | O_store_scalar _ | O_br _ | O_while _
    | O_input _ | O_output _ | O_assert _ | O_call _ | O_return _ ->
      true
    | O_send _ | O_recv _ | O_try_recv _ | O_lock _ | O_unlock _ | O_spawn _
    | O_atomic _ | O_fail _ | O_jmp _ ->
      false
  in

  (* Drop the candidate at index [k], keeping the rest in thread
     order. *)
  let remove_cand k =
    let n = !ncands - 1 in
    Array.blit !cands (k + 1) !cands k (n - k);
    ncands := n
  in

  (* Array indices are consumed as bare ints: the [tagged] record that
     [binop_apply] allocates for index arithmetic (and the boxed length
     of [C_arr_len]) is dead weight on every table access. The fast
     cases compute the int from already-evaluated operands — same
     operand order, same crash and type errors via the fallback — so
     results are those of the generic [binop_apply] path. *)
  let binop_int op (va : Value.tagged) (vb : Value.tagged) =
    match (op, va.Value.v, vb.Value.v) with
    | Add, Value.Vint x, Value.Vint y -> x + y
    | Sub, Value.Vint x, Value.Vint y -> x - y
    | Mul, Value.Vint x, Value.Vint y -> x * y
    | Min, Value.Vint x, Value.Vint y -> min x y
    | Max, Value.Vint x, Value.Vint y -> max x y
    | Div, Value.Vint x, Value.Vint y when y <> 0 -> x / y
    | Mod, Value.Vint x, Value.Vint y when y <> 0 -> x mod y
    | _ -> Value.as_int (binop_apply op va vb).Value.v
  in
  let rec ceval th (f : cframe) ~sid e =
    match e with
    | C_const v -> v
    | C_var slot ->
      let v = Array.unsafe_get f.c_locals slot in
      if v == unbound then
        raise (Crash_exn ("unbound variable " ^ f.c_fn.cf_slot_names.(slot)))
      else v
    | C_load_scalar rid ->
      let r = Array.unsafe_get c.c_scalar_names rid in
      let actual = Array.unsafe_get scalars rid in
      let v =
        world.World.on_read ~step:!step_count ~tid:th.c_tid ~sid ~region:r
          ~index:None ~actual
      in
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name
        (Event.Read { region = r; index = None; value = v });
      v
    | C_load (rid, ie) ->
      let i = ceval_int th f ~sid ie in
      let a = arrays.(rid) in
      if i < 0 || i >= Array.length a then
        raise
          (Crash_exn
             (Printf.sprintf "array %s index %d out of bounds (length %d)"
                c.c_array_names.(rid) i (Array.length a)))
      else begin
        let actual = Array.unsafe_get a i in
        let r = c.c_array_names.(rid) in
        let idx = Some i in
        let v =
          world.World.on_read ~step:!step_count ~tid:th.c_tid ~sid ~region:r
            ~index:idx ~actual
        in
        emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name
          (Event.Read { region = r; index = idx; value = v });
        v
      end
    | C_arr_len rid ->
      Value.untainted (Value.int (Array.length arrays.(rid)))
    | C_binop (op, a, b) ->
      let va = ceval th f ~sid a in
      let vb = ceval th f ~sid b in
      binop_apply op va vb
    | C_unop (op, a) -> unop_apply op (ceval th f ~sid a)

  and ceval_int th f ~sid e =
    match e with
    | C_binop (op, a, b) ->
      let va = ceval th f ~sid a in
      let vb = ceval th f ~sid b in
      binop_int op va vb
    | C_arr_len rid -> Array.length arrays.(rid)
    | _ -> Value.as_int (ceval th f ~sid e).Value.v
  in

  (* Branch conditions are evaluated for their truth value only, so the
     result [tagged] record and taint union of [binop_apply] are dead
     weight on every loop iteration. The fast cases below read the truth
     directly when both operands already have the right shape; anything
     else falls back to [binop_apply]/[unop_apply], which raise the
     [Type_error]s. Operand evaluation order is unchanged. *)
  let cond_true th f ~sid cc =
    match cc with
    | C_binop (op, a, b) -> (
      let va = ceval th f ~sid a in
      let vb = ceval th f ~sid b in
      match (op, va.Value.v, vb.Value.v) with
      | Lt, Value.Vint x, Value.Vint y -> x < y
      | Le, Value.Vint x, Value.Vint y -> x <= y
      | Gt, Value.Vint x, Value.Vint y -> x > y
      | Ge, Value.Vint x, Value.Vint y -> x >= y
      | Eq, x, y -> Value.equal x y
      | Ne, x, y -> not (Value.equal x y)
      | And, Value.Vbool x, Value.Vbool y -> x && y
      | Or, Value.Vbool x, Value.Vbool y -> x || y
      | _ -> Value.as_bool (binop_apply op va vb).Value.v)
    | C_unop (Not, a) -> (
      let va = ceval th f ~sid a in
      match va.Value.v with
      | Value.Vbool x -> not x
      | _ -> Value.as_bool (unop_apply Not va).Value.v)
    | cc -> Value.as_bool (ceval th f ~sid cc).Value.v
  in

  let eval_args th f ~sid (args : cexpr array) =
    let n = Array.length args in
    if n = 0 then [||]
    else begin
      let out = Array.make n unbound in
      for i = 0 to n - 1 do
        out.(i) <- ceval th f ~sid args.(i)
      done;
      out
    end
  in

  (* The statements [exec_op] runs. A receive or lock that would block
     is reached only inside an atomic body: as a thread's next
     instruction it would not be a candidate. *)
  let do_store th f ~sid rid ci ce =
    let i = ceval_int th f ~sid ci in
    let v = ceval th f ~sid ce in
    let a = arrays.(rid) in
    if i < 0 || i >= Array.length a then
      raise
        (Crash_exn
           (Printf.sprintf "array %s index %d out of bounds (length %d)"
              c.c_array_names.(rid) i (Array.length a)))
    else begin
      a.(i) <- v;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Write { region = c.c_array_names.(rid); index = Some i; value = v })
    end
  in
  let do_store_scalar th f ~sid rid ce =
    let v = ceval th f ~sid ce in
    scalars.(rid) <- v;
    emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Write { region = c.c_scalar_names.(rid); index = None; value = v })
  in
  let do_input th (f : cframe) ~sid xs ch domain taint =
    let v0 =
      world.World.pick_input ~step:!step_count ~tid:th.c_tid ~chan:ch ~domain
    in
    let v = Value.tag v0 taint in
    f.c_locals.(xs) <- v;
    emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.In { chan = ch; value = v })
  in
  (* outputs are gathered per channel as they are emitted, so the result
     needs no pass over the trace *)
  let do_output th (f : cframe) ~sid k ce =
    let v = ceval th f ~sid ce in
    outs.(k) <- v.Value.v :: outs.(k);
    emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name
      (Event.Out { chan = c.c_out_names.(k); value = v })
  in
  let do_send th f ~sid ch ce =
    let v = ceval th f ~sid ce in
    Queue.push v chans.(ch);
    emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_send { chan = c.c_chan_names.(ch); value = v })
  in
  let do_recv th (f : cframe) ~sid xs ch =
    let chan = c.c_chan_names.(ch) in
    let q = chans.(ch) in
    if not (Queue.is_empty q) then begin
      let actual = Queue.pop q in
      let v =
        world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan ~actual
      in
      f.c_locals.(xs) <- v;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_recv { chan; value = v })
    end
    else
      match
        world.World.on_try_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
      with
      | World.Force_value forced ->
        let v =
          world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
            ~actual:forced
        in
        f.c_locals.(xs) <- v;
        emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_recv { chan; value = v })
      | World.Force_fail | World.Default ->
        raise (Crash_exn ("recv on empty channel " ^ chan ^ " inside atomic"))
  in
  let do_try_recv th (f : cframe) ~sid oks xs ch =
    let chan = c.c_chan_names.(ch) in
    let q = chans.(ch) in
    let succeed v =
      f.c_locals.(oks) <- Value.untainted (Value.bool true);
      f.c_locals.(xs) <- v;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Msg_recv { chan; value = v })
    in
    let miss () =
      f.c_locals.(oks) <- Value.untainted (Value.bool false);
      f.c_locals.(xs) <- Value.untainted Value.unit
    in
    match
      world.World.on_try_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
    with
    | World.Force_fail -> miss ()
    | World.Force_value forced ->
      if not (Queue.is_empty q) then ignore (Queue.pop q);
      succeed
        (world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
           ~actual:forced)
    | World.Default ->
      if Queue.is_empty q then miss ()
      else
        succeed
          (world.World.on_recv ~step:!step_count ~tid:th.c_tid ~sid ~chan
             ~actual:(Queue.pop q))
  in
  let do_lock th (f : cframe) ~sid m =
    let o = locks.(m) in
    if o = th.c_tid then
      raise (Crash_exn ("relock of mutex " ^ c.c_lock_names.(m)))
    else if o >= 0 then
      raise
        (Crash_exn ("lock contention on " ^ c.c_lock_names.(m) ^ " inside atomic"))
    else begin
      locks.(m) <- th.c_tid;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Lock_acq c.c_lock_names.(m))
    end
  in
  let do_unlock th (f : cframe) ~sid m =
    if locks.(m) = th.c_tid then begin
      locks.(m) <- -1;
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Lock_rel c.c_lock_names.(m))
    end
    else raise (Crash_exn ("unlock of mutex " ^ c.c_lock_names.(m) ^ " not held"))
  in

  let rec exec_op th (f : cframe) (i : instr) =
    let sid = i.i_sid in
    match i.i_op with
    | O_skip -> ()
    | O_assign (xs, e) -> Array.unsafe_set f.c_locals xs (ceval th f ~sid e)
    | O_store (rid, ci, ce) -> do_store th f ~sid rid ci ce
    | O_store_scalar (rid, ce) -> do_store_scalar th f ~sid rid ce
    | O_br (cc, elsep) ->
      if not (cond_true th f ~sid cc) then f.c_pc <- elsep
    | O_while (cc, exitp) ->
      if not (cond_true th f ~sid cc) then f.c_pc <- exitp
    | O_jmp _ -> assert false (* resolved before dispatch *)
    | O_input (xs, ch, domain, taint) -> do_input th f ~sid xs ch domain taint
    | O_output (k, ce) -> do_output th f ~sid k ce
    | O_send (ch, ce) -> do_send th f ~sid ch ce
    | O_recv (xs, ch) -> do_recv th f ~sid xs ch
    | O_try_recv (oks, xs, ch) -> do_try_recv th f ~sid oks xs ch
    | O_lock m -> do_lock th f ~sid m
    | O_unlock m -> do_unlock th f ~sid m
    | O_spawn (callee, fn, args) ->
      let argv = eval_args th f ~sid args in
      let child = spawn_cthread callee argv in
      emit ~tid:th.c_tid ~sid ~fname:f.c_fn.cf_name (Event.Spawned { child; fname = fn })
    | O_call (dest, callee, args) -> (
      let argv = eval_args th f ~sid args in
      match callee with
      | Callee_bad msg -> raise (Crash_exn msg)
      | Callee fi ->
        th.c_frames <- make_cframe c.c_funcs.(fi) argv dest :: th.c_frames)
    | O_return e -> (
      let v = ceval th f ~sid e in
      match th.c_frames with
      | fr :: callers ->
        th.c_frames <- callers;
        (match callers with
        | caller :: _ when fr.c_dest >= 0 -> caller.c_locals.(fr.c_dest) <- v
        | _ -> ())
      | [] -> raise (Crash_exn "return without frame"))
    | O_assert (ce, msg) ->
      if not (cond_true th f ~sid ce) then
        raise (Crash_exn ("assertion failed: " ^ msg))
    | O_fail msg -> raise (Crash_exn msg)
    | O_atomic endp -> exec_atomic th f endp atomic_budget
  (* An atomic body runs from [f.c_pc] to [endp] within the one step.
     Every statement reached spends one unit of the budget, each loop
     test and a nested marker included; a silent jump spends none. *)
  and exec_atomic th f endp left =
    if f.c_pc < endp then
      let i = Array.unsafe_get f.c_fn.cf_code f.c_pc in
      match i.i_op with
      | O_jmp t ->
        f.c_pc <- t;
        exec_atomic th f endp left
      | op ->
        let left = left - 1 in
        if left <= 0 then raise (Crash_exn "atomic budget exhausted");
        f.c_pc <- f.c_pc + 1;
        (* a nested body follows its marker inline, under the same budget *)
        (match op with O_atomic _ -> () | _ -> exec_op th f i);
        exec_atomic th f endp left
  in

  (* [th] is the candidate at index [k], so its next instruction is
     resolved and its top frame is the one that instruction belongs to *)
  let exec_step th k =
    let i = th.c_next in
    let f = List.hd th.c_frames in
    emit ~tid:th.c_tid ~sid:i.i_sid ~fname:f.c_fn.cf_name Event.Step;
    f.c_pc <- f.c_pc + 1;
    (try exec_op th f i with
    | Crash_exn msg ->
      emit ~tid:th.c_tid ~sid:i.i_sid ~fname:f.c_fn.cf_name (Event.Crashed msg);
      raise (Crash_at (i.i_sid, msg))
    | Value.Type_error msg ->
      emit ~tid:th.c_tid ~sid:i.i_sid ~fname:f.c_fn.cf_name (Event.Crashed msg);
      raise (Crash_at (i.i_sid, msg)));
    refresh th;
    if use_cache && !cache_valid then
      if not (local_op i.i_op) then cache_valid := false
      else if not (runnable th) then remove_cand k
  in

  let finish status =
    let failure =
      match status with
      | Crashed f -> Some f
      | Deadlock | Step_limit -> Some Failure.Hang
      | Done | Aborted _ -> None
    in
    let outputs =
      Array.fold_right
        (fun k acc ->
          match outs.(k) with
          | [] -> acc
          | vs -> (c.c_out_names.(k), List.rev vs) :: acc)
        c.c_out_sorted []
    in
    { status; trace; steps = !step_count; outputs; failure }
  in

  (* Cooperative cancellation, polled in the step loop rather than per
     event: [cancel] exists for wall-clock deadlines whose check (a
     gettimeofday) is too expensive for the per-event abort hook, so it
     is consulted only every 128 steps. *)
  let cancelled () =
    match cancel with
    | Some check when !step_count land 127 = 0 -> check ()
    | _ -> None
  in
  let alive () =
    let rec from k =
      k < !nthreads && (!threads.(k).c_frames <> [] || from (k + 1))
    in
    from 0
  in
  (* the world's index is the one thing checked per step: every slot
     below [n] holds a candidate whose tid is in the thread table *)
  let rec loop () =
    if !step_count >= max_steps then finish Step_limit
    else
      match cancelled () with
      | Some reason -> finish (Aborted reason)
      | None ->
        let n = candidates () in
        if n = 0 then (if alive () then finish Deadlock else finish Done)
        else begin
          let cs = !cands in
          let k = world.World.pick_thread ~step:!step_count cs n in
          if k < 0 || k >= n then
            invalid_arg "Interp: world picked a non-candidate thread";
          exec_step
            (Array.unsafe_get !threads (Array.unsafe_get cs k).World.tid)
            k;
          incr step_count;
          loop ()
        end
  in
  try loop () with
  | Crash_at (sid, msg) -> finish (Crashed (Failure.Crash { sid; msg }))
  | Abort_exn reason -> finish (Aborted reason)

let run ?max_steps ?monitors ?abort ?cancel labeled world =
  run_compiled ?max_steps ?monitors ?abort ?cancel (compile labeled) world

let rec assoc_chan chan = function
  | [] -> []
  | (c, vs) :: rest -> if String.equal c chan then vs else assoc_chan chan rest

let outputs_on r chan = assoc_chan chan r.outputs
