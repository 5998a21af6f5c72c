open Mvm
open Ddet_record

type divergence = { step : int; head_tid : int; head_sid : int; stands_at : int }

type handle = {
  world : World.t;
  abort : Event.t -> string option;
  violated : unit -> bool;
  diverged : unit -> divergence option;
}

let never_diverged () = None

(* Every hook below runs per event or per scheduling candidate. None of
   them hashes or compares polymorphically, builds a string or allocates
   a tuple to look something up: tables are the monomorphic [Tbl]
   instances or arrays indexed by site, and (tid, sid) pairs are
   compared field by field. A pick walks the interpreter's candidate
   array by index, [cands.(0)] to [cands.(n - 1)], and answers an
   index. *)

(* Queues are consed per key, then each is reversed once into log order:
   appending would be quadratic in a queue's length. *)
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

(* Per-thread value queues (inputs, logged reads). *)
let pop tbl tid =
  match Tbl.Int.find_opt tbl tid with
  | Some ({ contents = v :: tl } as r) ->
    r := tl;
    Some v
  | Some { contents = [] } | None -> None

let input_queues log =
  queues_of
    (List.filter_map
       (function Log.Input { tid; value; _ } -> Some (tid, value) | _ -> None)
       log.Log.entries)

(* the index of thread [t]'s candidate at site [s], from index [k] up
   to [n], or -1 *)
let rec find_cand t s (cands : World.cand array) n k =
  if k = n then -1
  else
    let c = cands.(k) in
    if c.World.tid = t && c.World.sid = s then k else find_cand t s cands n (k + 1)

let rec count_where ok (cands : World.cand array) n k acc =
  if k = n then acc
  else count_where ok cands n (k + 1) (if ok cands.(k) then acc + 1 else acc)

(* the index of the [j]-th candidate from index [k] on that is [ok] *)
let rec nth_where ok (cands : World.cand array) j k =
  if not (ok cands.(k)) then nth_where ok cands j (k + 1)
  else if j = 0 then k
  else nth_where ok cands (j - 1) (k + 1)

(* The index [Prng.pick rng (List.filter ok cands)] picks, without
   building the list: the same draw ([Prng.int] of the filtered count)
   selects the same candidate. -1, drawing nothing, when no candidate is
   [ok]. *)
let pick_where rng ok cands n =
  match count_where ok cands n 0 0 with
  | 0 -> -1
  | m -> nth_where ok cands (Prng.int rng m) 0

let abort_of violated = fun _ -> if !violated then Some "log-divergence" else None

(* the log from its next [Sched] entry on: the perfect oracle's cursor
   walks the log's own entries instead of a copied schedule *)
let rec to_sched = function
  | Log.Sched _ :: _ as l -> l
  | _ :: rest -> to_sched rest
  | [] -> []

let perfect log =
  let remaining = ref (to_sched log.Log.entries) in
  let inputs = input_queues log in
  let violated = ref false in
  let world =
    {
      World.pick_thread =
        (fun ~step:_ cands n ->
          match !remaining with
          | Log.Sched { tid = t; sid = s } :: tl ->
            let k = find_cand t s cands n 0 in
            if k >= 0 then begin
              remaining := to_sched tl;
              k
            end
            else begin
              violated := true;
              0
            end
          | _ -> 0);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> (
            violated := true;
            match domain with [] -> Value.unit | v :: _ -> v));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      forcing = World.Never;
    }
  in
  {
    world;
    abort = abort_of violated;
    violated = (fun () -> !violated);
    diverged = never_diverged;
  }

let value_det ~seed log =
  let rng = Prng.create seed in
  (* per-thread per-instruction observation log: (site, kind, value) in the
     thread's observation order, each value tagged once here rather than
     at every read that observes it *)
  let reads =
    queues_of
      (List.filter_map
         (function
           | Log.Read_val { tid; sid; kind; value } ->
             Some (tid, (sid, kind, Value.untainted value))
           | _ -> None)
         log.Log.entries)
  in
  (* a read or receive at [sid] observes the head of its thread's log
     when the head was observed at [sid], and consumes it *)
  let observe ~tid ~sid ~actual =
    match Tbl.Int.find_opt reads tid with
    | Some ({ contents = (s, _, v) :: tl } as r) when s = sid ->
      r := tl;
      v
    | Some _ | None -> actual
  in
  let inputs = input_queues log in
  let world =
    {
      World.pick_thread = (fun ~step:_ _ n -> Prng.int rng n);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
      on_read =
        (fun ~step:_ ~tid ~sid ~region:_ ~index:_ ~actual ->
          observe ~tid ~sid ~actual);
      on_recv = (fun ~step:_ ~tid ~sid ~chan:_ ~actual -> observe ~tid ~sid ~actual);
      on_try_recv =
        (fun ~step:_ ~tid ~sid ~chan:_ ->
          (* pure peek: the poll outcome is part of the thread's observed
             values — a logged Msg entry at this site means the original
             receive succeeded here; the log advances in on_recv. An
             exhausted log means the thread observed nothing more in its
             recorded life, so later polls miss rather than drain backlog
             the original never saw. The answer for [tid] reads only
             [tid]'s queue, which only [tid]'s own reads and receives
             advance, so a blocked receive this world forces can change
             its mind only when its own thread runs: the candidate cache
             holds, asking about it when it patches that thread *)
          match Tbl.Int.find_opt reads tid with
          | Some { contents = (s, Log.Msg, v) :: _ } when s = sid ->
            World.Force_value v
          | Some _ | None -> World.Force_fail);
      forcing = World.Own_steps;
    }
  in
  let never = ref false in
  {
    world;
    abort = abort_of never;
    violated = (fun () -> !never);
    diverged = never_diverged;
  }

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
   risky candidate runs, and the step it takes at its pending site aborts
   the attempt. The tracer counts the picks whose head entry is at no
   candidate (oracle.rcse_stalls) and the tier-3 picks
   (oracle.rcse_risky).

   Under [strict], a stalled pick also asks whether the log can still be
   followed, and declares divergence when it cannot, so the next event
   ends the attempt through the same abort:
   - rule 1 (held head): the head's thread is a candidate at another
     site still pending. Every step emits its site, so that thread's
     next step is out of log order, and it cannot reach the head's site
     without taking it. Found in the walk that looks for the head.
   - rule 2 (starved head): the head has been at no candidate for more
     picks in a row than the recorded run took steps, as when its thread
     is blocked behind held threads. The bound is the log's own
     [base_steps]; a log without it skips the rule.
   Each bumps its counter (oracle.rcse_held, oracle.rcse_starved) once
   for the attempt it ends, and [diverged] says where.

   Windowed (trigger/invariant) logs record a time slice whose sites also
   execute legitimately outside the window, so schedule enforcement is
   only meaningful for statically selected (code-based) logs; windowed
   replay ([strict:false]) pins the recorded inputs by site and searches
   the schedule: it has no cursor, so neither rule applies. *)
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
  let diverged = ref None in
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
  let c_held = Ddet_obs.Tracer.handle "oracle.rcse_held" in
  let c_starved = Ddet_obs.Tracer.handle "oracle.rcse_starved" in
  (* the thread the last pick ran and its site. Inputs execute in the
     step of the thread just picked, so input forcing aligns logged input
     sites against [cur_sid] *)
  let cur_tid = ref (-1) and cur_sid = ref 0 in
  let run (cands : World.cand array) k =
    let c = cands.(k) in
    cur_tid := c.World.tid;
    cur_sid := c.World.sid;
    k
  in
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
  (* One walk per pick whose log head is (t, s): [at_head] when thread
     [t] is a candidate at [s]; [held] when it is a candidate at a site
     still pending (rule 1); either way that candidate's index is left in
     [found]. Otherwise the number of safe candidates. Each thread is a
     candidate at most once *)
  let at_head = -1 and held = -2 and found = ref 0 in
  let rec walk t s (cands : World.cand array) n k safe_n =
    if k = n then safe_n
    else
      let c = cands.(k) in
      if c.World.tid = t then
        if c.World.sid = s then begin
          found := k;
          at_head
        end
        else if is_pending t c.World.sid then begin
          found := k;
          held
        end
        else walk t s cands n (k + 1) (safe_n + 1)
      else walk t s cands n (k + 1) (if safe c then safe_n + 1 else safe_n)
  in
  (* consecutive picks the head has been at no candidate: rule 2 fires
     past the recorded run's length *)
  let starved = ref 0 and starve_bound = log.Log.base_steps in
  let diverge counter ~step t s stands_at =
    violated := true;
    diverged := Some { step; head_tid = t; head_sid = s; stands_at };
    Ddet_obs.Tracer.bump counter 1
  in
  let pick_thread ~step cands n =
    match !remaining with
    | [] ->
      (* nothing pending: every candidate is safe *)
      run cands (Prng.int rng n)
    | (t, s) :: _ ->
      let r = walk t s cands n 0 0 in
      if r = at_head then begin
        starved := 0;
        run cands !found
      end
      else begin
        Ddet_obs.Tracer.bump c_stalls 1;
        incr starved;
        if r = held then begin
          diverge c_held ~step t s cands.(!found).World.sid;
          run cands !found
        end
        else if starve_bound > 0 && !starved > starve_bound then begin
          diverge c_starved ~step t s (-1);
          run cands 0
        end
        else if r > 0 then run cands (nth_where safe cands (Prng.int rng r) 0)
        else begin
          Ddet_obs.Tracer.bump c_risky 1;
          run cands (Prng.int rng n)
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
      World.pick_thread;
      pick_input;
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      forcing = World.Never;
    }
  in
  {
    world;
    abort;
    violated = (fun () -> !violated);
    diverged = (fun () -> !diverged);
  }

(* Sync replay's held table is indexed by site like strict RCSE's
   pending table, with the same fixed number of slots: slot [sid land
   (pending_slots - 1)] lists the sites sharing it. An order is an
   object's recorded (tid, sid) pairs not yet matched. *)
type order = (int * int) list ref

(* a site the scheduler holds back until it is next in [h_order]: a
   send, spawn or lock the log records there *)
type held = { h_sid : int; mutable h_order : order }

let rec find_held sid = function
  | [] -> None
  | h :: rest -> if h.h_sid = sid then Some h else find_held sid rest

(* whether a candidate at (tid, sid) may run: a held site only when it
   is next in its order, any other site always *)
let rec held_allows tid sid = function
  | [] -> true
  | h :: rest -> (
    if h.h_sid <> sid then held_allows tid sid rest
    else match !(h.h_order) with (t, s) :: _ -> t = tid && s = sid | [] -> false)

(* Sync-schedule replay enforces *per-object* operation orders, which is
   what an ODR-style logger records: per-channel send and consume orders,
   the global spawn order (it assigns thread ids) and per-lock acquisition
   orders. A try_recv whose thread is not the next recorded consumer of its
   channel is forced to miss (harmless poll); a send or spawn is only
   scheduled when it is next in its object's order; an event that still
   comes out of order (or was never recorded at all) aborts the attempt.
   Plain shared-memory access order is deliberately unconstrained: data-race
   outcomes are what this scheme must infer (searched by restarts). The
   oracle only ever forces a poll to miss, never a receive to succeed, so
   its world never forces and runs on the interpreter's candidate cache.

   No hook hashes. The scheduler reads the held sites from a table
   indexed by site. The abort hook and the poll find an event's order by
   its site too: a statement's channel or lock is a literal, so the first
   event at a site looks its object up by name and a [Site_memo] keeps
   the answer. An object the log never mentions gets an empty order,
   created once, which no event matches: it aborts, and its polls
   miss. *)
let sync ~seed log =
  let rng = Prng.create seed in
  (* per-object orders: per channel for sends and for receives, per lock
     for acquisitions, one for spawns *)
  let sends = Tbl.Str.create 8
  and recvs = Tbl.Str.create 8
  and locks = Tbl.Str.create 8
  and spawns = ref [] in
  let order_of tbl key =
    match Tbl.Str.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Tbl.Str.replace tbl key r;
      r
  in
  let mask = pending_slots - 1 in
  (* a site logged twice with different objects is held to the last *)
  let held = Array.make pending_slots [] in
  let hold_at sid r =
    let k = sid land mask in
    match find_held sid held.(k) with
    | Some h -> h.h_order <- r
    | None -> held.(k) <- { h_sid = sid; h_order = r } :: held.(k)
  in
  List.iter
    (function
      | Log.Sync { tid; sid; op } -> (
        let push r = r := (tid, sid) :: !r in
        let hold r =
          push r;
          hold_at sid r
        in
        match op with
        | Log.Op_send c -> hold (order_of sends c)
        | Log.Op_spawn -> hold spawns
        | Log.Op_lock m -> hold (order_of locks m)
        | Log.Op_recv c -> push (order_of recvs c)
        | Log.Op_unlock _ -> ())
      | _ -> ())
    log.Log.entries;
  let in_log_order _ r = r := List.rev !r in
  List.iter (Tbl.Str.iter in_log_order) [ sends; recvs; locks ];
  in_log_order () spawns;
  (* per kind of event, the order each site's object has *)
  let sent_at = Site_memo.create ()
  and recv_at = Site_memo.create ()
  and locked_at = Site_memo.create () in
  let send_order = order_of sends
  and recv_order = order_of recvs
  and lock_order = order_of locks in
  let violated_set = ref false in
  let advance r (e : Event.t) =
    match !r with
    | (t, s) :: tl when t = e.Event.tid && s = e.Event.sid -> r := tl
    | _ -> violated_set := true
  in
  let abort (e : Event.t) =
    (match e.Event.kind with
    | Event.Msg_send io ->
      advance (Site_memo.find sent_at e.Event.sid io.Event.chan send_order) e
    | Event.Msg_recv io ->
      advance (Site_memo.find recv_at e.Event.sid io.Event.chan recv_order) e
    | Event.Spawned _ -> advance spawns e
    | Event.Lock_acq m ->
      advance (Site_memo.find locked_at e.Event.sid m lock_order) e
    | Event.Step | Event.Read _ | Event.Write _ | Event.In _ | Event.Out _
    | Event.Lock_rel _ | Event.Crashed _ ->
      ());
    if !violated_set then Some "sync-order-divergence" else None
  in
  let inputs = input_queues log in
  let allowed (c : World.cand) =
    held_allows c.World.tid c.World.sid held.(c.World.sid land mask)
  in
  let world =
    {
      World.pick_thread =
        (fun ~step:_ cands n ->
          let k = pick_where rng allowed cands n in
          if k >= 0 then k
          else begin
            violated_set := true;
            Prng.int rng n
          end);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv =
        (fun ~step:_ ~tid ~sid ~chan ->
          match !(Site_memo.find recv_at sid chan recv_order) with
          | (t, _) :: _ when t = tid -> World.Default
          | _ -> World.Force_fail);
      (* the poll only ever misses by force: a blocked receive still
         becomes runnable only through a send, so the candidate cache
         holds *)
      forcing = World.Never;
    }
  in
  {
    world;
    abort;
    violated = (fun () -> !violated_set);
    diverged = never_diverged;
  }

(* Partial-evidence replay over a stitched shard merge. The merged log
   is dense for surviving threads (a perfect recorder logs every one of
   their steps), so the RCSE subsequence scheduler above would starve them:
   all their sites are "pending", only lost-node threads ever look safe,
   and one stalled head wedges the run. Instead the partial oracle
   steers softly — when the merged order's head is an eligible
   candidate it runs, otherwise the pick is uniform over ALL candidates
   — and the cursor simply stops advancing past a head the execution
   never reaches (the lost node's altered timing makes that legitimate,
   not divergence, so there is no abort). Surviving threads' inputs are
   fed back per thread; lost threads fall back to seeded-random domain
   picks: the lost evidence is exactly the search dimension. *)
type steer = {
  lost_tids : int list;
  hot_sids : int list;
  cold_input_tids : int list;
}

let no_steer = { lost_tids = []; hot_sids = []; cold_input_tids = [] }

let partial ?(steer = no_steer) ~seed log =
  let rng = Prng.create seed in
  let remaining = ref (Log.sched_points log) in
  let inputs = input_queues log in
  let mem_tbl xs =
    let t = Tbl.Int.create (List.length xs + 1) in
    List.iter (fun x -> Tbl.Int.replace t x ()) xs;
    t
  in
  let lost = mem_tbl steer.lost_tids in
  let hot = mem_tbl steer.hot_sids in
  let cold = mem_tbl steer.cold_input_tids in
  (* handles resolved once per oracle; picks may run on worker domains,
     where only atomic counter bumps are allowed (no ring writes) *)
  let c_stalls = Ddet_obs.Tracer.handle "oracle.cursor_stalls" in
  let c_hot = Ddet_obs.Tracer.handle "oracle.steer_hot_picks" in
  let c_cold = Ddet_obs.Tracer.handle "oracle.cold_pins" in
  let is_hot (c : World.cand) =
    Tbl.Int.mem lost c.World.tid && Tbl.Int.mem hot c.World.sid
  in
  (* on a cursor stall, prefer a lost thread sitting at a statically hot
     site: those are the only decision points whose order the search
     actually needs to explore *)
  let pick_free ~stalled cands n =
    (* a stall (merged-order head present but not eligible) is expected
       under partial evidence, not divergence — but its frequency is
       exactly the cost of the lost node, so the trace counts it *)
    if stalled then Ddet_obs.Tracer.bump c_stalls 1;
    let k = pick_where rng is_hot cands n in
    if k < 0 then Prng.int rng n
    else begin
      Ddet_obs.Tracer.bump c_hot 1;
      k
    end
  in
  let advance (e : Event.t) =
    match e.Event.kind with
    | Event.Step -> (
      match !remaining with
      | (t, s) :: tl when t = e.Event.tid && s = e.Event.sid -> remaining := tl
      | _ -> ())
    | _ -> ()
  in
  let abort e =
    advance e;
    None
  in
  let world =
    {
      World.pick_thread =
        (fun ~step:_ cands n ->
          match !remaining with
          | (t, s) :: _ ->
            let k = find_cand t s cands n 0 in
            if k >= 0 then k else pick_free ~stalled:true cands n
          | [] -> pick_free ~stalled:false cands n);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> (
            match domain with
            | [] -> Value.unit
            | v :: _ when Tbl.Int.mem cold tid ->
              (* statically cold: this thread's inputs provably never
                 reached a survivor, so pin them instead of searching *)
              Ddet_obs.Tracer.bump c_cold 1;
              v
            | _ -> Prng.pick rng domain));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
      forcing = World.Never;
    }
  in
  { world; abort; violated = (fun () -> false); diverged = never_diverged }
