(* The attempt pool behind random restarts and seed scans. At jobs <= 1
   it is an in-order loop on the calling thread; at jobs > 1, the
   lock-free indexed pool below. Either way [process] sees every result
   in index order, so an outcome cannot depend on [jobs]. *)

(* ------------------------------------------------------------------ *)
(* placement policy: constants, not arguments *)

type tuning = { chunk : int; window_per_job : int; spawn_cost_steps : int }

let default_tuning = { chunk = 4; window_per_job = 4; spawn_cost_steps = 15_000 }

let effective_jobs ~jobs est =
  (* Min-work threshold: spawning and coordinating worker domains costs
     roughly [spawn_cost_steps] interpreter steps' worth of work per
     search; when the caller's estimate of one attempt (typically the
     recorded run's base_steps) falls below it, parallel fan-out is a
     guaranteed loss and the pool runs in order on the calling thread.

     Cores cap: jobs is clamped to [Domain.recommended_domain_count ()]
     — extra domains on an oversubscribed machine only add preemption and
     cache pressure, and the outcome is identical at any job count by
     construction. *)
  let jobs =
    match est with
    | Some e when e < default_tuning.spawn_cost_steps -> 1
    | _ -> jobs
  in
  min jobs (max 1 (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* waiting: spin first — the other side is usually a few hundred ns away
   from its next atomic publish — then sleep; on boxes with fewer cores
   than domains a pure spin-wait would starve the domain holding the
   work. *)

let backoff spins =
  if spins < 64 then Domain.cpu_relax () else Unix.sleepf 0.000_05

(* traced variant: charge the wait to an idle-time counter (wall time,
   [_ns]-suffixed so the tracer masks it in deterministic renderings) *)
let idle_backoff idle spins =
  match idle with
  | None -> backoff spins
  | Some _ ->
    let t0 = Ddet_obs.Clock.now () in
    backoff spins;
    Ddet_obs.Tracer.bump idle (Int64.to_int (Ddet_obs.Clock.elapsed_ns t0))

(* ------------------------------------------------------------------ *)

let indexed ~jobs ~first ~last ~make_exec ~process ~exhausted =
  let chunk = default_tuning.chunk in
  (* claim window: how far past the reducer's frontier workers may claim;
     at jobs >= 2 it spans at least two chunks, so a worker can always
     claim *)
  let window = jobs * default_tuning.window_per_job in
  (* Result mailbox: a bounded ring of atomic slots addressed by attempt
     index land mask. Safety of reusing slot [i land mask] between
     attempts [i] and [i + cap]: a worker only claims a range whose low
     end satisfies [lo < next_proc + window] (checked before the CAS),
     so every index it may ever write is < next_proc + window + chunk
     <= next_proc + cap - 1; and the reducer clears a slot *before*
     publishing the advanced [next_proc]. So by the time attempt [i]'s
     claim check passes, attempt [i - cap] <= next_proc - 1 has been
     consumed and its cell reset. *)
  let cap =
    let need = window + chunk + 1 in
    let rec p2 n = if n >= need then n else p2 (n * 2) in
    p2 2
  in
  let mask = cap - 1 in
  let slots = Array.init cap (fun _ -> Atomic.make None) in
  let next_claim = Atomic.make first in
  let next_proc = Atomic.make first in
  let stop = Atomic.make false in
  (* counter handles resolved once on the reducer thread, before any
     domain spawns; workers bump the atomics lock-free *)
  let c_claims = Ddet_obs.Tracer.handle "par.chunk_claims" in
  let c_widle = Ddet_obs.Tracer.handle "par.worker_idle_ns" in
  let c_ridle = Ddet_obs.Tracer.handle "par.reducer_idle_ns" in
  let worker w () =
    let exec =
      make_exec ~worker:(Some w) ~cancel:(Some (fun () -> Atomic.get stop))
    in
    (* claim a run of up to [chunk] consecutive indices with one CAS *)
    let rec claim spins =
      if Atomic.get stop then None
      else
        let lo = Atomic.get next_claim in
        if lo > last then None
        else if lo >= Atomic.get next_proc + window then begin
          idle_backoff c_widle spins;
          claim (spins + 1)
        end
        else
          let hi = min (lo + chunk - 1) last in
          if Atomic.compare_and_set next_claim lo (hi + 1) then begin
            Ddet_obs.Tracer.bump c_claims 1;
            Some (lo, hi)
          end
          else claim 0
    in
    let rec run () =
      match claim 0 with
      | None -> ()
      | Some (lo, hi) ->
        let i = ref lo in
        let live = ref true in
        while !live && !i <= hi do
          let r = exec !i in
          Atomic.set slots.(!i land mask) (Some r);
          incr i;
          if Atomic.get stop then live := false
        done;
        if !live then run ()
    in
    run ()
  in
  let domains = List.init jobs (fun w -> Domain.spawn (worker w)) in
  let stop_all () =
    Atomic.set stop true;
    List.iter Domain.join domains
  in
  let rec reduce spins =
    let i = Atomic.get next_proc in
    if i > last then begin
      stop_all ();
      exhausted ()
    end
    else
      let cell = slots.(i land mask) in
      match Atomic.get cell with
      | None ->
        idle_backoff c_ridle spins;
        reduce (spins + 1)
      | Some r -> (
        (* clear before advancing — the ring-safety argument above *)
        Atomic.set cell None;
        match (try process i (fun () -> r) with e -> stop_all (); raise e) with
        | `Stop out ->
          stop_all ();
          out
        | `Continue ->
          Atomic.set next_proc (i + 1);
          reduce 0)
  in
  reduce 0

let pool ?est_attempt_steps ~jobs ~first ~last ~make_exec ~process ~exhausted
    () =
  let jobs = effective_jobs ~jobs est_attempt_steps in
  if jobs > 1 then indexed ~jobs ~first ~last ~make_exec ~process ~exhausted
  else
    let exec = make_exec ~worker:None ~cancel:None in
    let rec go i =
      if i > last then exhausted ()
      else
        match process i (fun () -> exec i) with
        | `Stop out -> out
        | `Continue -> go (i + 1)
    in
    go first
