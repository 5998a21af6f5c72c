open Mvm

type budget = {
  max_attempts : int;
  max_steps_per_attempt : int;
  base_seed : int;
  deadline_s : float option;
}

let default_budget =
  {
    max_attempts = 2_000;
    max_steps_per_attempt = 50_000;
    base_seed = 1;
    deadline_s = None;
  }

type incident = {
  at_attempt : int;
  worker : int option;
  error : string;
  retries : int;
  poisoned : bool;
}

let pp_incident ppf i =
  Format.fprintf ppf "attempt %d%a: %s (%s after %d retr%s)" i.at_attempt
    (fun ppf -> function
      | None -> ()
      | Some w -> Format.fprintf ppf " on worker %d" w)
    i.worker i.error
    (if i.poisoned then "poisoned" else "requeued")
    i.retries
    (if i.retries = 1 then "y" else "ies")

type stats = {
  attempts : int;
  total_steps : int;
  pruned : int;
  success : bool;
  deadline_hit : bool;
  incidents : incident list;
}

type partial = { best : Interp.result; closeness : float; attempt : int }

type outcome = {
  result : Interp.result option;
  partial : partial option;
  stats : stats;
}

(* ------------------------------------------------------------------ *)
(* deadlines: the budget carries a relative wall-clock allowance; each
   engine converts it to an absolute instant once at start. Between
   attempts the check is a plain comparison; inside an attempt it rides
   the interpreter's coarse [cancel] poll (every 128 steps), so a single
   long run cannot blow through the deadline unchecked.

   The instant is monotonic (Obs.Clock, ns), not gettimeofday: an NTP
   step or a suspend would otherwise fire every pending deadline at
   once — or starve them forever if the clock stepped back. *)

let deadline_reason = "deadline"

let deadline_of budget =
  Option.map
    (fun s -> Int64.add (Ddet_obs.Clock.now ()) (Ddet_obs.Clock.ns_of_s s))
    budget.deadline_s

let deadline_passed = function
  | None -> false
  | Some t -> Int64.compare (Ddet_obs.Clock.now ()) t >= 0

let wall_cancel = function
  | None -> None
  | Some t ->
    Some
      (fun () ->
        if Int64.compare (Ddet_obs.Clock.now ()) t >= 0 then
          Some deadline_reason
        else None)

(* a run the poll cut is not an attempt: nothing judges it, and the
   search ends as the deadline check before it would have *)
let cut_by_deadline (r : Interp.result) =
  r.Interp.status = Interp.Aborted deadline_reason

(* ------------------------------------------------------------------ *)
(* Best-effort tracking: when no attempt is accepted, the outcome still
   carries the highest-scoring candidate seen, so an exhausted budget
   degrades to a Partial reproduction instead of nothing.

   Checkpoints cannot afford to serialise the candidate's full
   Interp.result, so the tracker works in terms of a rerun key (the
   attempt index for seeded restarts, the decision prefix for odometer
   engines): a best candidate restored from a checkpoint is held as
   (closeness, attempt, key) and only rematerialised — by
   deterministically re-executing that one attempt — if the search ends
   without a hit. Ties keep the earlier candidate, which is also why a
   resumed tracker seeded with the stored best stays faithful: the stored
   candidate was the earliest of its score. [key_of] reads the key from
   a checkpoint's best record and [prefix_of] writes it back; [ckpt]
   is the best record for the next checkpoint. *)

type ('k, 'r) cell =
  | B_none
  | B_live of 'r * 'k  (* a partial we have in memory, plus its key *)
  | B_stored of float * int * 'k  (* restored from a checkpoint *)

let track_best (type k) ~(key_of : Checkpoint.best -> k option)
    ~(prefix_of : k -> int array option) ~(rerun : k -> Interp.result) resume
    score =
  let best : (k, partial) cell ref =
    ref
      (match Option.bind resume (fun c -> c.Checkpoint.best) with
      | None -> B_none
      | Some b -> (
        match key_of b with
        | None -> B_none
        | Some key -> B_stored (b.Checkpoint.b_closeness, b.b_attempt, key)))
  in
  let note attempt key r =
    let c = score r in
    let keep =
      match !best with
      | B_none -> false
      | B_live (p, _) -> p.closeness >= c
      | B_stored (sc, _, _) -> sc >= c
    in
    if not keep then best := B_live ({ best = r; closeness = c; attempt }, key)
  in
  let get () =
    match !best with
    | B_none -> None
    | B_live (p, _) -> Some p
    | B_stored (c, a, key) ->
      Some { best = rerun key; closeness = c; attempt = a }
  in
  let ckpt () =
    let record b_closeness b_attempt key =
      Some { Checkpoint.b_closeness; b_attempt; b_prefix = prefix_of key }
    in
    match !best with
    | B_none -> None
    | B_live (p, key) -> record p.closeness p.attempt key
    | B_stored (c, a, key) -> record c a key
  in
  (note, get, ckpt)

(* every engine, at any jobs, funnels its outcome through these two
   constructors on the calling thread, so this is the one place the
   tracer learns what a search cost *)
let observe (st : stats) =
  let module T = Ddet_obs.Tracer in
  match T.current () with
  | None -> ()
  | Some t ->
    T.bump (Some (T.counter t "search.attempts")) st.attempts;
    T.bump (Some (T.counter t "search.steps")) st.total_steps;
    T.bump (Some (T.counter t "search.pruned")) st.pruned;
    T.bump (Some (T.counter t "search.incidents")) (List.length st.incidents);
    if st.deadline_hit then T.bump (Some (T.counter t "search.deadline_hits")) 1;
    T.instant t "search.done"
      ~args:
        [
          ("attempts", T.Count st.attempts);
          ("accepted", T.Count (if st.success then 1 else 0));
        ]

let exhausted ~attempts ~total_steps ?(pruned = 0) ?(deadline_hit = false)
    ?(incidents = []) best =
  let stats =
    { attempts; total_steps; pruned; success = false; deadline_hit; incidents }
  in
  observe stats;
  { result = None; partial = best (); stats }

let accepted ~attempts ~total_steps ?(pruned = 0) ?(deadline_hit = false)
    ?(incidents = []) r =
  let stats =
    { attempts; total_steps; pruned; success = true; deadline_hit; incidents }
  in
  observe stats;
  { result = Some r; partial = None; stats }

let no_score : Interp.result -> float = fun _ -> 0.

(* ------------------------------------------------------------------ *)
(* site priority: a static analysis hands the search a set of suspect
   sids; attempts then use a biased world that prefers scheduling
   threads whose next statement is a suspect site. The hint only moves
   probability mass, never removes schedules (see World.prioritized). *)

type site_priority = { sids : int list }

let site_prefer { sids } =
  let tbl = Tbl.Int.create (List.length sids) in
  List.iter (fun s -> Tbl.Int.replace tbl s ()) sids;
  fun (c : World.cand) -> Tbl.Int.mem tbl c.World.sid

(* ------------------------------------------------------------------ *)
(* supervision: one attempt's execution may raise (a hostile world
   callback, a resource blip). The search survives it: the attempt is
   retried a bounded number of times, then poisoned — recorded as an
   incident and skipped — instead of tearing the whole search down.
   [supervise] runs where the attempt runs (a pool worker, or the
   calling thread) and delivers the verdict with the attempt's value;
   [settle] files its incident on the judging side, in attempt order. *)

let max_job_retries = 1

type 'a job = Job_ok of 'a * incident option | Job_poisoned of incident

let supervise ~attempt ~worker f =
  let rec go ~retries ~last_error =
    match f () with
    | v ->
      Job_ok
        ( v,
          Option.map
            (fun error ->
              { at_attempt = attempt; worker; error; retries; poisoned = false })
            last_error )
    | exception e ->
      let error = Printexc.to_string e in
      if retries < max_job_retries then
        go ~retries:(retries + 1) ~last_error:(Some error)
      else
        Job_poisoned
          { at_attempt = attempt; worker; error; retries; poisoned = true }
  in
  go ~retries:0 ~last_error:None

let settle incidents = function
  | Job_ok (v, inc) ->
    Option.iter (fun i -> incidents := i :: !incidents) inc;
    Some v
  | Job_poisoned inc ->
    incidents := inc :: !incidents;
    None

(* ------------------------------------------------------------------ *)
(* checkpointing plumbing shared by the engines *)

(* one resume check for every engine: a checkpoint resumes only the
   engine kind that wrote it, from the same origin (the budget's base
   seed, or a seed scan's [from]) *)
let check_resume ~engine ~origin = function
  | None -> None
  | Some (ck : Checkpoint.t) ->
    if not (String.equal ck.Checkpoint.engine engine) then
      invalid_arg
        (Printf.sprintf
           "Search: cannot resume a %S checkpoint with the %S engine"
           ck.Checkpoint.engine engine);
    if ck.Checkpoint.base_seed <> origin then
      invalid_arg
        (Printf.sprintf
           "Search: checkpoint origin %d does not match this search's %d — \
            a resumed search must re-walk the same attempt sequence"
           ck.Checkpoint.base_seed origin);
    Some ck

(* ------------------------------------------------------------------ *)
(* engines *)

let random_restarts ?(jobs = 1) ?est_attempt_steps ?(score = no_score)
    ?checkpoint ?resume budget ~make ~spec ~accept labeled =
  let resume =
    check_resume ~engine:"restarts" ~origin:budget.base_seed resume
  in
  let total_steps =
    ref (match resume with Some c -> c.Checkpoint.total_steps | None -> 0)
  in
  let incidents = ref [] in
  let deadline = deadline_of budget in
  let wall = wall_cancel deadline in
  let rerun attempt =
    let world, abort = make ~attempt in
    let r =
      Interp.run ~max_steps:budget.max_steps_per_attempt ?abort labeled world
    in
    Spec.apply spec r
  in
  let note, best, best_ckpt =
    track_best
      ~key_of:(fun b -> Some b.Checkpoint.b_attempt)
      ~prefix_of:(fun _ -> None) ~rerun resume score
  in
  let frontier attempt () =
    {
      Checkpoint.engine = "restarts";
      base_seed = budget.base_seed;
      attempt;
      total_steps = !total_steps;
      pruned = 0;
      prefix = None;
      best = best_ckpt ();
    }
  in
  let tick attempt =
    Option.iter (fun s -> Checkpoint.tick s (frontier attempt)) checkpoint
  in
  let fail ~attempts ?deadline_hit () =
    Option.iter (fun s -> Checkpoint.flush s (frontier attempts)) checkpoint;
    exhausted ~attempts ~total_steps:!total_steps ?deadline_hit
      ~incidents:(List.rev !incidents) best
  in
  (* why judged attempts ended short of a verdict: the step cap, or an
     abort hook. A deadline-cut attempt is never judged *)
  let c_cap = Ddet_obs.Tracer.handle "search.step_cap_hits" in
  let c_aborted = Ddet_obs.Tracer.handle "search.aborted" in
  let make_exec ~worker ~cancel attempt =
    supervise ~attempt ~worker (fun () ->
        let world, abort = make ~attempt in
        let abort = match abort with Some a -> a | None -> fun _ -> None in
        let abort =
          match cancel with
          | None -> abort
          | Some c -> fun e -> if c () then Some "cancelled" else abort e
        in
        Interp.run ~max_steps:budget.max_steps_per_attempt ~abort ?cancel:wall
          labeled world)
  in
  let process attempt run =
    if deadline_passed deadline then
      `Stop (fail ~attempts:(attempt - 1) ~deadline_hit:true ())
    else
      match settle incidents (run ()) with
      | None ->
        (* poisoned: this attempt is lost, the search is not *)
        tick attempt;
        `Continue
      | Some r when cut_by_deadline r ->
        `Stop (fail ~attempts:(attempt - 1) ~deadline_hit:true ())
      | Some r ->
        total_steps := !total_steps + r.Interp.steps;
        (match r.Interp.status with
        | Interp.Step_limit -> Ddet_obs.Tracer.bump c_cap 1
        | Interp.Aborted _ -> Ddet_obs.Tracer.bump c_aborted 1
        | Interp.Done | Interp.Crashed _ | Interp.Deadlock -> ());
        let r = Spec.apply spec r in
        if accept r then
          `Stop
            (accepted ~attempts:attempt ~total_steps:!total_steps
               ~incidents:(List.rev !incidents) r)
        else begin
          note attempt attempt r;
          tick attempt;
          `Continue
        end
  in
  let first =
    match resume with Some c -> c.Checkpoint.attempt + 1 | None -> 1
  in
  Par_search.pool ?est_attempt_steps ~jobs ~first
    ~last:budget.max_attempts ~make_exec ~process
    ~exhausted:(fun () -> fail ~attempts:(max budget.max_attempts (first - 1)) ())
    ()

(* The odometer engines: attempt k+1's prefix is [Engine.advance] of
   attempt k's prefix and the fan-outs it discovered, so they run in
   order on the calling thread. One loop serves both; an engine brings
   its name and its executor. A probe the executor cut short (a clamped
   digit) is not an attempt: its steps count, its subtree is skipped, and
   the frontier advances without a new attempt. Nor is a probe the
   deadline cut, whose fan-outs are truncated: it ends the search. *)
let odometer ~engine
    ~(exec :
       ?wall:(unit -> string option) ->
       budget:int ->
       prefix:int array ->
       Label.labeled ->
       Engine.probe) ?(score = no_score) ?checkpoint ?resume budget ~spec
    ~accept labeled =
  let resume = check_resume ~engine ~origin:budget.base_seed resume in
  let restored field = match resume with Some c -> field c | None -> 0 in
  let total_steps = ref (restored (fun c -> c.Checkpoint.total_steps)) in
  let pruned = ref (restored (fun c -> c.Checkpoint.pruned)) in
  let incidents = ref [] in
  let deadline = deadline_of budget in
  let wall = wall_cancel deadline in
  let max_steps = budget.max_steps_per_attempt in
  let rerun prefix =
    (* a judged candidate was a completed run, so re-executing its prefix
       reproduces it exactly *)
    Spec.apply spec (exec ~budget:max_steps ~prefix labeled).Engine.result
  in
  let note, best, best_ckpt =
    track_best
      ~key_of:(fun b -> b.Checkpoint.b_prefix)
      ~prefix_of:Option.some ~rerun resume score
  in
  let frontier attempt prefix () =
    {
      Checkpoint.engine;
      base_seed = budget.base_seed;
      attempt;
      total_steps = !total_steps;
      pruned = !pruned;
      prefix;
      best = best_ckpt ();
    }
  in
  let fail ~attempts ~prefix ?deadline_hit () =
    Option.iter
      (fun s -> Checkpoint.flush s (frontier attempts prefix))
      checkpoint;
    exhausted ~attempts ~total_steps:!total_steps ~pruned:!pruned
      ?deadline_hit ~incidents:(List.rev !incidents) best
  in
  let rec go attempt = function
    | None -> fail ~attempts:(attempt - 1) ~prefix:None ()
    | Some prefix as next ->
      if attempt > budget.max_attempts then
        fail ~attempts:(attempt - 1) ~prefix:next ()
      else if deadline_passed deadline then
        fail ~attempts:(attempt - 1) ~prefix:next ~deadline_hit:true ()
      else (
        match
          settle incidents
            (supervise ~attempt ~worker:None (fun () ->
                 exec ?wall ~budget:max_steps ~prefix labeled))
        with
        | None ->
          (* poisoned: without the probe's sizes the odometer cannot
             advance past this prefix, so the search ends gracefully
             instead of spinning on a doomed attempt *)
          fail ~attempts:attempt ~prefix:next ()
        | Some p when cut_by_deadline p.Engine.result ->
          fail ~attempts:(attempt - 1) ~prefix:next ~deadline_hit:true ()
        | Some p -> (
          match Engine.classify p with
          | Engine.Skipped { steps; sizes } ->
            incr pruned;
            total_steps := !total_steps + steps;
            advance ~judged:(attempt - 1) prefix sizes
          | Engine.Attempt (r, sizes) ->
            total_steps := !total_steps + r.Interp.steps;
            let r = Spec.apply spec r in
            if accept r then
              accepted ~attempts:attempt ~total_steps:!total_steps
                ~pruned:!pruned
                ~incidents:(List.rev !incidents)
                r
            else begin
              note attempt prefix r;
              advance ~judged:attempt prefix sizes
            end))
  (* the first [judged] attempts are done: tick, then run the next prefix *)
  and advance ~judged prefix sizes =
    let next = Engine.advance prefix sizes in
    Option.iter (fun s -> Checkpoint.tick s (frontier judged next)) checkpoint;
    go (judged + 1) next
  in
  match resume with
  | None -> go 1 (Some [||])
  | Some c -> go (c.Checkpoint.attempt + 1) c.Checkpoint.prefix

let enumerate_inputs ?score ?checkpoint ?resume budget ~spec ~accept labeled =
  odometer ~engine:"inputs" ~exec:Engine.exec_inputs ?score ?checkpoint
    ?resume budget ~spec ~accept labeled

let dfs_schedules ?score ?checkpoint ?resume budget ~spec ~accept labeled =
  odometer ~engine:"dfs" ~exec:Engine.exec_schedule ?score ?checkpoint
    ?resume budget ~spec ~accept labeled

(* ------------------------------------------------------------------ *)
(* seed scans *)

let scan_engine = "scan"

let first_success ?(jobs = 1) ?checkpoint ?resume ~from ~count ~f () =
  let resume = check_resume ~engine:scan_engine ~origin:from resume in
  let last = from + count - 1 in
  let frontier i () =
    {
      Checkpoint.engine = scan_engine;
      base_seed = from;
      attempt = i;
      total_steps = 0;
      pruned = 0;
      prefix = None;
      best = None;
    }
  in
  let tick i =
    Option.iter (fun s -> Checkpoint.tick s (frontier i)) checkpoint
  in
  Par_search.pool ~jobs
    ~first:(match resume with Some c -> c.Checkpoint.attempt + 1 | None -> from)
    ~last
    ~make_exec:(fun ~worker ~cancel:_ i ->
      supervise ~attempt:i ~worker (fun () -> f i))
    ~process:(fun i run ->
      match run () with
      | Job_ok (Some v, _) -> `Stop (Some (i, v))
      | Job_ok (None, _) | Job_poisoned _ ->
        (* a probe that keeps raising poisons only its own seed *)
        tick i;
        `Continue)
    ~exhausted:(fun () ->
      Option.iter (fun s -> Checkpoint.flush s (frontier last)) checkpoint;
      None)
    ()
