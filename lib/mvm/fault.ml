type chan_action =
  | Drop of float
  | Duplicate of float
  | Delay of { from_step : int; until_step : int }

type fault =
  | Chan of { chan : string; action : chan_action }
  | Stall of { tid : int; from_step : int; until_step : int }
  | Crash of { tid : int; at_step : int }
  | Perturb of { chan : string; prob : float }
  (* node-granular faults: sugar over the thread/channel primitives,
     desugared by [lower] against a Node.map before injection *)
  | Partition of { groups : string list list; from_step : int; until_step : int }
  | Node_crash of { node : string; at_step : int }
  | Node_restart of { node : string; from_step : int; until_step : int }

type plan = { seed : int; faults : fault list }

let none = { seed = 0; faults = [] }
let make ?(seed = 0) faults = { seed; faults }
let is_empty plan = plan.faults = []

let drop ?(prob = 0.1) chan = Chan { chan; action = Drop prob }
let duplicate ?(prob = 0.1) chan = Chan { chan; action = Duplicate prob }
let delay ~chan ~from_step ~until_step =
  Chan { chan; action = Delay { from_step; until_step } }
let stall ~tid ~from_step ~until_step = Stall { tid; from_step; until_step }
let crash ~tid ~at_step = Crash { tid; at_step }
let perturb ?(prob = 0.1) chan = Perturb { chan; prob }

let partition ~groups ~from_step ~until_step =
  Partition { groups; from_step; until_step }

let node_crash ~node ~at_step = Node_crash { node; at_step }

let node_restart ~node ~from_step ~until_step =
  Node_restart { node; from_step; until_step }

let is_node_fault = function
  | Partition _ | Node_crash _ | Node_restart _ -> true
  | Chan _ | Stall _ | Crash _ | Perturb _ -> false

let has_node_faults plan = List.exists is_node_fault plan.faults

(* ------------------------------------------------------------------ *)
(* deterministic coins

   Each decision is a pure hash ({!Prng.coin}) of the plan seed, a salt
   distinguishing the fault kind, and the decision's coordinates. Purity
   is load-bearing: the scheduler may consult on_try_recv once to decide
   whether a blocked Recv is runnable and again to execute it, within the
   same step — a stream-drawing PRNG would desynchronise the two calls. *)

let str_salt s =
  String.fold_left (fun h c -> (h * 31) + Char.code c) (String.length s) s

(* [Prng.coin plan.seed [salt; step; tid; sid; chan_salt]], where
   [chan_salt] is [str_salt] of the channel, computed once per channel;
   inlined, so a draw allocates nothing *)
let[@inline] coin plan ~salt ~step ~tid ~sid ~chan_salt =
  float_of_int (Prng.coin_bits5 plan.seed salt step tid sid chan_salt)
  /. 9007199254740992.

let salt_drop = 1
let salt_dup = 2
let salt_perturb = 3
let salt_perturb_ix = 4

(* ------------------------------------------------------------------ *)
(* rendering / parsing *)

let fault_to_string = function
  | Chan { chan; action = Drop p } -> Printf.sprintf "drop:%s:%g" chan p
  | Chan { chan; action = Duplicate p } -> Printf.sprintf "dup:%s:%g" chan p
  | Chan { chan; action = Delay { from_step; until_step } } ->
    Printf.sprintf "delay:%s:%d-%d" chan from_step until_step
  | Stall { tid; from_step; until_step } ->
    Printf.sprintf "stall:%d:%d-%d" tid from_step until_step
  | Crash { tid; at_step } -> Printf.sprintf "crash:%d:%d" tid at_step
  | Perturb { chan; prob } -> Printf.sprintf "perturb:%s:%g" chan prob
  | Partition { groups; from_step; until_step } ->
    Printf.sprintf "partition:%s:%d-%d"
      (String.concat "|" (List.map (String.concat "+") groups))
      from_step until_step
  | Node_crash { node; at_step } -> Printf.sprintf "nodecrash:%s:%d" node at_step
  | Node_restart { node; from_step; until_step } ->
    Printf.sprintf "noderestart:%s:%d-%d" node from_step until_step

let to_string plan =
  String.concat ","
    (Printf.sprintf "seed=%d" plan.seed :: List.map fault_to_string plan.faults)

let parse_prob clause s =
  match float_of_string_opt s with
  | Some p when p >= 0. && p <= 1. -> Ok p
  | _ -> Error (Printf.sprintf "bad probability %S in clause %S" s clause)

let parse_int clause s =
  match int_of_string_opt s with
  | Some n -> Ok n
  | None -> Error (Printf.sprintf "bad integer %S in clause %S" s clause)

let parse_range clause s =
  match String.index_opt s '-' with
  | Some k ->
    let a = String.sub s 0 k in
    let b = String.sub s (k + 1) (String.length s - k - 1) in
    Result.bind (parse_int clause a) (fun lo ->
        Result.map (fun hi -> (lo, hi)) (parse_int clause b))
  | None -> Error (Printf.sprintf "bad step range %S in clause %S" s clause)

let parse_clause clause =
  let ( let* ) = Result.bind in
  match String.split_on_char ':' clause with
  | [ "drop"; chan; p ] ->
    let* p = parse_prob clause p in
    Ok (`Fault (Chan { chan; action = Drop p }))
  | [ "dup"; chan; p ] ->
    let* p = parse_prob clause p in
    Ok (`Fault (Chan { chan; action = Duplicate p }))
  | [ "delay"; chan; range ] ->
    let* from_step, until_step = parse_range clause range in
    Ok (`Fault (Chan { chan; action = Delay { from_step; until_step } }))
  | [ "stall"; tid; range ] ->
    let* tid = parse_int clause tid in
    let* from_step, until_step = parse_range clause range in
    Ok (`Fault (Stall { tid; from_step; until_step }))
  | [ "crash"; tid; at ] ->
    let* tid = parse_int clause tid in
    let* at_step = parse_int clause at in
    Ok (`Fault (Crash { tid; at_step }))
  | [ "perturb"; chan; p ] ->
    let* prob = parse_prob clause p in
    Ok (`Fault (Perturb { chan; prob }))
  | [ "partition"; groups; range ] ->
    let groups =
      String.split_on_char '|' groups
      |> List.map (fun g ->
             String.split_on_char '+' g |> List.filter (fun n -> n <> ""))
      |> List.filter (fun g -> g <> [])
    in
    if List.length groups < 2 then
      Error
        (Printf.sprintf
           "partition needs at least two groups (A+B|C) in clause %S" clause)
    else
      let* from_step, until_step = parse_range clause range in
      Ok (`Fault (Partition { groups; from_step; until_step }))
  | [ "nodecrash"; node; at ] ->
    let* at_step = parse_int clause at in
    Ok (`Fault (Node_crash { node; at_step }))
  | [ "noderestart"; node; range ] ->
    let* from_step, until_step = parse_range clause range in
    Ok (`Fault (Node_restart { node; from_step; until_step }))
  | [ kv ] when String.length kv > 5 && String.sub kv 0 5 = "seed=" ->
    let* seed = parse_int clause (String.sub kv 5 (String.length kv - 5)) in
    Ok (`Seed seed)
  | _ -> Error (Printf.sprintf "unrecognised fault clause %S" clause)

let of_string s =
  let clauses =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go seed acc = function
    | [] -> Ok { seed; faults = List.rev acc }
    | clause :: rest -> (
      match parse_clause clause with
      | Ok (`Seed n) -> go n acc rest
      | Ok (`Fault f) -> go seed (f :: acc) rest
      | Error e -> Error e)
  in
  go 0 [] clauses

(* ------------------------------------------------------------------ *)
(* lowering node faults to thread/channel primitives

   Node faults are sugar, not a new mechanism: a partition is a Delay on
   every channel whose users span two groups, a node crash is a Crash of
   every member thread, a node restart a Stall (the node is out for the
   window; its memory survives — process restart with intact state, the
   simplification DESIGN §11 documents). Lowering is a pure function of
   (plan, node map, program), so the *lowered* plan is what ships in the
   log and replay needs no node knowledge at all. *)

let lower ~map ~prog plan =
  let lower_fault = function
    | Partition { groups; from_step; until_step } ->
      List.map
        (fun chan -> Chan { chan; action = Delay { from_step; until_step } })
        (Node.cut_channels map prog ~groups)
    | Node_crash { node; at_step } ->
      List.map (fun tid -> Crash { tid; at_step }) (Node.members map prog node)
    | Node_restart { node; from_step; until_step } ->
      List.map
        (fun tid -> Stall { tid; from_step; until_step })
        (Node.members map prog node)
    | (Chan _ | Stall _ | Crash _ | Perturb _) as f -> [ f ]
  in
  { plan with faults = List.concat_map lower_fault plan.faults }

(* ------------------------------------------------------------------ *)
(* injection *)

(* What the plan says about one channel: its [Chan] clauses in plan
   order, the largest probability of its [Perturb] clauses (0. without
   any), its salt, computed once, and, for [Duplicate], the last message
   delivered on it. [last] is mutated only in on_recv — which the
   interpreter calls strictly after every on_try_recv consultation of
   the same step — so on_try_recv stays pure within a step. The channel
   table is a list of these, searched by name: a plan names few
   channels. *)
type chan_faults = {
  chan : string;
  salt : int;
  actions : chan_action list;
  perturb : float;
  mutable last : Value.tagged option;
}

(* what [faults_on] finds for a channel no clause names *)
let unfaulted = { chan = ""; salt = 0; actions = []; perturb = 0.; last = None }

let rec faults_on chan = function
  | [] -> unfaulted
  | c :: rest -> if String.equal c.chan chan then c else faults_on chan rest

(* one record per channel a [Chan] or [Perturb] clause names, first use
   first *)
let chan_table plan =
  let for_chan chan =
    {
      chan;
      salt = str_salt chan;
      actions =
        List.filter_map
          (function
            | Chan { chan = c; action } when String.equal c chan -> Some action
            | _ -> None)
          plan.faults;
      perturb =
        List.fold_left
          (fun acc -> function
            | Perturb { chan = c; prob } when String.equal c chan -> Float.max acc prob
            | _ -> acc)
          0. plan.faults;
      last = None;
    }
  in
  List.fold_left
    (fun acc -> function
      | (Chan { chan; _ } | Perturb { chan; _ }) when faults_on chan acc == unfaulted ->
        acc @ [ for_chan chan ]
      | _ -> acc)
    [] plan.faults

(* the first of [actions] that fires decides *)
let rec chan_decision plan c actions ~step ~tid ~sid =
  match actions with
  | [] -> World.Default
  | action :: rest -> (
    match action with
    | Drop p when coin plan ~salt:salt_drop ~step ~tid ~sid ~chan_salt:c.salt < p ->
      World.Force_fail
    | Delay { from_step; until_step } when step >= from_step && step < until_step ->
      World.Force_fail
    | Duplicate p when coin plan ~salt:salt_dup ~step ~tid ~sid ~chan_salt:c.salt < p
      -> (
      match c.last with
      | Some v -> World.Force_value v
      | None -> chan_decision plan c rest ~step ~tid ~sid)
    | Drop _ | Duplicate _ | Delay _ -> chan_decision plan c rest ~step ~tid ~sid)

let has_duplicate plan =
  List.exists
    (function Chan { action = Duplicate _; _ } -> true | _ -> false)
    plan.faults

(* The Stall and Crash clauses as windows of steps. The set of
   descheduled threads changes only at a step where some clause starts
   or ends, so [window clauses step] is the widest [lo, hi) around
   [step] that no clause boundary splits, with the tids descheduled
   throughout it. The scheduler recomputes it only when a step leaves
   the window it holds. *)
type window = { lo : int; hi : int; out : int list }

let window clauses step =
  let bound w b =
    if b <= step then { w with lo = Int.max w.lo b }
    else { w with hi = Int.min w.hi b }
  in
  List.fold_left
    (fun w -> function
      | Stall { tid; from_step; until_step } ->
        let w = bound (bound w from_step) until_step in
        if step >= from_step && step < until_step then { w with out = tid :: w.out }
        else w
      | Crash { tid; at_step } ->
        let w = bound w at_step in
        if step >= at_step then { w with out = tid :: w.out } else w
      | Chan _ | Perturb _ | Partition _ | Node_crash _ | Node_restart _ -> w)
    { lo = min_int; hi = max_int; out = [] }
    clauses

let rec is_out tid = function [] -> false | t :: rest -> t = tid || is_out tid rest

let rec any_out out = function
  | [] -> false
  | (c : World.cand) :: rest -> is_out c.tid out || any_out out rest

let inject plan (w : World.t) =
  if has_node_faults plan then
    invalid_arg
      (Printf.sprintf
         "Fault.inject: plan %S contains node-granular faults; lower it \
          against the app's node map first (Fault.lower)"
         (to_string plan));
  if is_empty plan then w
  else
    (* The plan is split once, here, so no per-step hook walks clauses
       that cannot apply to it: the scheduler sees only the Stall and
       Crash clauses, and a delivery attempt only its channel's own. *)
    let desched =
      List.filter (function Stall _ | Crash _ -> true | _ -> false) plan.faults
    in
    let chans = chan_table plan in
    let has clause = List.exists clause plan.faults in
    let duplicates = has_duplicate plan in
    {
      w with
      World.name = Printf.sprintf "%s+faults(%s)" w.World.name (to_string plan);
      (* chan_decision forces a value only for [Duplicate], which can
         wake a blocked recv on an empty queue; drops and delays only
         make polls miss. Without a [Duplicate] clause a never-forcing
         world stays never-forcing and keeps the candidate cache. Over a
         world that forces per thread the plan's step-dependent misses
         would decide when that thread's forced receive can run, which
         is no longer a function of the thread's own steps *)
      forcing =
        (match w.World.forcing with
        | World.Never when not duplicates -> World.Never
        | World.Never | World.Own_steps | World.Anything -> World.Anything);
      pick_thread =
        (match desched with
        | [] -> w.World.pick_thread
        | _ ->
          let current = ref (window desched 0) in
          fun ~step cands ->
            let win = !current in
            let win =
              if step >= win.lo && step < win.hi then win
              else begin
                let win = window desched step in
                current := win;
                win
              end
            in
            match win.out with
            | [] -> w.World.pick_thread ~step cands
            | out -> (
              if not (any_out out cands) then w.World.pick_thread ~step cands
              else
                match
                  List.filter
                    (fun (c : World.cand) -> not (is_out c.tid out))
                    cands
                with
                | [] -> w.World.pick_thread ~step cands
                | alive -> w.World.pick_thread ~step alive));
      pick_input =
        (if not (has (function Perturb _ -> true | _ -> false)) then w.World.pick_input
         else fun ~step ~tid ~chan ~domain ->
          let c = faults_on chan chans in
          let p = c.perturb and chan_salt = c.salt in
          if
            p > 0. && domain <> []
            && coin plan ~salt:salt_perturb ~step ~tid ~sid:0 ~chan_salt < p
          then
            let n = List.length domain in
            let k =
              int_of_float
                (coin plan ~salt:salt_perturb_ix ~step ~tid ~sid:0 ~chan_salt
                *. float_of_int n)
            in
            List.nth domain (min k (n - 1))
          else w.World.pick_input ~step ~tid ~chan ~domain);
      (* the last delivery is kept only on channels with clauses: only
         their [Duplicate]s read it *)
      on_recv =
        (if not duplicates then w.World.on_recv
         else fun ~step ~tid ~sid ~chan ~actual ->
           let v = w.World.on_recv ~step ~tid ~sid ~chan ~actual in
           let c = faults_on chan chans in
           if c != unfaulted then c.last <- Some v;
           v);
      on_try_recv =
        (if not (has (function Chan _ -> true | _ -> false)) then w.World.on_try_recv
         else fun ~step ~tid ~sid ~chan ->
          let c = faults_on chan chans in
          match chan_decision plan c c.actions ~step ~tid ~sid with
          | World.Default -> w.World.on_try_recv ~step ~tid ~sid ~chan
          | decision -> decision);
    }
