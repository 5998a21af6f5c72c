(* The reference RCSE oracle: [Oracle.rcse] as it was before strict
   replay learnt to stop where the log can no longer be followed, kept as
   the differential reference for tests.

   A strict attempt whose log head its thread can no longer reach runs on
   here until a risky pick emits an out-of-order site or the step cap
   cuts it. The library's oracle must accept every attempt this one
   accepts, with the same run, and reject every attempt it rejects, in no
   more steps. Its hooks, helpers and tracer counters are copied
   unchanged; only the handle is its own record, of the same shape as the
   library's was. *)

open Mvm
open Ddet_record
open Ddet_replay

type handle = {
  world : World.t;
  abort : Event.t -> string option;
  violated : unit -> bool;
}

let queues_of pairs =
  let tbl = Tbl.Int.create 8 in
  List.iter
    (fun (tid, v) ->
      match Tbl.Int.find_opt tbl tid with
      | Some r -> r := v :: !r
      | None -> Tbl.Int.replace tbl tid (ref [ v ]))
    pairs;
  Tbl.Int.iter (fun _ r -> r := List.rev !r) tbl;
  tbl

(* whether thread [t] is a candidate at site [s] *)
let rec has_cand t s = function
  | [] -> false
  | (c : World.cand) :: rest ->
    (c.World.tid = t && c.World.sid = s) || has_cand t s rest

let rec count_where ok n = function
  | [] -> n
  | c :: rest -> count_where ok (if ok c then n + 1 else n) rest

let rec nth_where ok k = function
  | [] -> invalid_arg "Oracle.nth_where"
  | c :: rest ->
    if not (ok c) then nth_where ok k rest
    else if k = 0 then c
    else nth_where ok (k - 1) rest

let no_cand = World.cand ~tid:(-1) ~sid:(-1) ~fname:""

(* [Prng.pick rng (List.filter ok cands)] without building the list: the
   same draw ([Prng.int] of the filtered length) selects the same
   candidate. [no_cand], drawing nothing, when no candidate is [ok]. *)
let pick_where rng ok cands =
  match count_where ok 0 cands with
  | 0 -> no_cand
  | n -> nth_where ok (Prng.int rng n) cands

(* Strict RCSE's multiset of pending (tid, sid) pairs, indexed by site:
   slot [sid land (slots - 1)] lists the pairs of the sites sharing it,
   each with the count of its entries the cursor has not passed. A query
   compares ints down one short list, hashing nothing. The table has a
   fixed number of slots, however large the sids the log names: a
   program with more sites than slots only shares slots, and an
   out-of-program pair (a sid the labeller never gives, a tid no run
   spawns) sits in some slot where no event or candidate ever matches
   it. 256 slots keep the table on the minor heap, and give every
   shipped app's sites a slot of their own. *)
type pending = { p_tid : int; p_sid : int; mutable p_left : int }

let pending_slots = 256

let rec find_pending tid sid = function
  | [] -> raise Not_found
  | p :: rest ->
    if p.p_tid = tid && p.p_sid = sid then p else find_pending tid sid rest

let rec is_pending_in tid sid = function
  | [] -> false
  | p :: rest ->
    (p.p_tid = tid && p.p_sid = sid && p.p_left > 0) || is_pending_in tid sid rest

(* RCSE replay: the recorded (tid, sid) subsequence must occur in order.
   The log cursor advances on *observed events* (via the abort hook,
   which sees every event), not on scheduling decisions — a forced
   try_recv that finds an empty queue emits nothing and must not consume
   a log entry. A step matching a *later* entry means this interleaving
   cannot match the log: the attempt is flagged and aborted.

   Scheduling is tiered: (1) a candidate at the head entry is forced;
   (2) otherwise candidates whose next site appears nowhere in the pending
   log are safe (a statement only emits events carrying its own site id,
   so they cannot produce an out-of-order logged event); (3) otherwise a
   risky candidate runs — either harmlessly (a poll that emits nothing)
   or producing the violation that aborts the attempt. Tier 3 prevents
   livelock when the replay has genuinely diverged. The tracer counts the
   picks whose head entry is at no candidate (oracle.rcse_stalls) and the
   tier-3 picks (oracle.rcse_risky): on msg_server's code-based logs
   nearly every pick stalls and none is risky, the head's thread never
   reaching its site while the others run safely to the step cap
   (ROADMAP item 1).

   Windowed (trigger/invariant) logs record a time slice whose sites also
   execute legitimately outside the window, so schedule enforcement is
   only meaningful for statically selected (code-based) logs; windowed
   replay ([strict:false]) pins the recorded inputs by site and searches
   the schedule. *)
let rcse ?(strict = true) ~seed log =
  let points = if strict then Log.cp_sched_points log else [] in
  let rng = Prng.create seed in
  let remaining = ref points in
  let slots = Array.make pending_slots [] in
  let mask = pending_slots - 1 in
  List.iter
    (fun (t, s) ->
      let k = s land mask in
      match find_pending t s slots.(k) with
      | p -> p.p_left <- p.p_left + 1
      | exception Not_found ->
        slots.(k) <- { p_tid = t; p_sid = s; p_left = 1 } :: slots.(k))
    points;
  (* the cursor's head is always in the table: it came from [points] *)
  let take_pending t s =
    let p = find_pending t s slots.(s land mask) in
    p.p_left <- p.p_left - 1
  in
  let is_pending tid sid = is_pending_in tid sid slots.(sid land mask) in
  let violated = ref false in
  let cp_inputs =
    queues_of
      (List.filter_map
         (function
           | Log.Cp_input { tid; sid; value; _ } -> Some (tid, (sid, value))
           | _ -> None)
         log.Log.entries)
  in
  (* handles resolved once per oracle, as in [partial]. A stall is a pick
     whose log head is pending but not at any candidate; a risky pick is
     tier 3 *)
  let c_stalls = Ddet_obs.Tracer.handle "oracle.rcse_stalls" in
  let c_risky = Ddet_obs.Tracer.handle "oracle.rcse_risky" in
  (* the thread the last pick ran and its site. Inputs execute in the
     step of the thread just picked, so input forcing aligns logged input
     sites against [cur_sid] *)
  let cur_tid = ref (-1) and cur_sid = ref 0 in
  let run tid sid =
    cur_tid := tid;
    cur_sid := sid;
    tid
  in
  let run_cand (c : World.cand) = run c.World.tid c.World.sid in
  let advance (e : Event.t) =
    match e.Event.kind with
    | Event.Step -> (
      match !remaining with
      | (t, s) :: tl when t = e.Event.tid && s = e.Event.sid ->
        remaining := tl;
        take_pending t s
      | _ -> if strict && is_pending e.Event.tid e.Event.sid then violated := true)
    | _ -> ()
  in
  let abort e =
    advance e;
    if !violated then Some "log-divergence" else None
  in
  let safe (c : World.cand) = not (is_pending c.World.tid c.World.sid) in
  let pick_thread ~step:_ cands =
    match !remaining with
    | [] ->
      (* nothing pending: every candidate is safe *)
      run_cand (Prng.pick rng cands)
    | (t, s) :: _ ->
      if has_cand t s cands then run t s
      else begin
        Ddet_obs.Tracer.bump c_stalls 1;
        let c = pick_where rng safe cands in
        if c != no_cand then run_cand c
        else begin
          Ddet_obs.Tracer.bump c_risky 1;
          run_cand (Prng.pick rng cands)
        end
      end
  in
  let pick_input ~step:_ ~tid ~chan:_ ~domain =
    match Tbl.Int.find_opt cp_inputs tid with
    | Some ({ contents = (s, v) :: tl } as r)
      when tid = !cur_tid && s = !cur_sid ->
      r := tl;
      v
    | Some _ | None -> (
      match domain with [] -> Value.unit | _ -> Prng.pick rng domain)
  in
  let world =
    {
      World.name = Printf.sprintf "replay:rcse(seed=%d)" seed;
      pick_thread;
      pick_input;
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      forcing = World.Never;
    }
  in
  { world; abort; violated = (fun () -> !violated) }
