(* Observability layer: the ring's overflow accounting, the masked-trace
   determinism law, and the monotonic-deadline regression (deadlines used
   to read the wall clock, so an NTP step could fire them all at once). *)

open Ddet
open Ddet_apps
module T = Ddet_obs.Tracer
module Clock = Ddet_obs.Clock

(* ------------------------------------------------------------------ *)
(* ring buffer *)

let test_ring_exact_fill () =
  let t = T.create ~capacity:8 () in
  for i = 1 to 8 do
    T.instant t (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "full" 8 (T.length t);
  Alcotest.(check int) "no drops at capacity" 0 (T.dropped t)

let test_ring_wraparound () =
  let t = T.create ~capacity:8 () in
  for i = 1 to 13 do
    T.instant t (Printf.sprintf "e%d" i)
  done;
  Alcotest.(check int) "len capped" 8 (T.length t);
  Alcotest.(check int) "drops counted" 5 (T.dropped t);
  let names = List.map (fun (e : T.ev) -> e.T.name) (T.events t) in
  Alcotest.(check (list string))
    "last capacity events survive, oldest first"
    [ "e6"; "e7"; "e8"; "e9"; "e10"; "e11"; "e12"; "e13" ]
    names

let test_ring_drop_accuracy_qcheck =
  QCheck.Test.make ~name:"dropped = pushes - capacity, contents = tail"
    ~count:50
    QCheck.(pair (int_range 2 32) (int_range 0 100))
    (fun (cap, extra) ->
      let t = T.create ~capacity:cap () in
      let total = cap + extra in
      for i = 1 to total do
        T.instant t (string_of_int i)
      done;
      let names = List.map (fun (e : T.ev) -> e.T.name) (T.events t) in
      let expect = List.init cap (fun k -> string_of_int (extra + k + 1)) in
      T.length t = cap && T.dropped t = extra && names = expect)

(* With no tracer installed an instrumentation hook is one ref read: a
   count by name resolves no handle and allocates nothing. *)
let test_disabled_count_allocates_nothing () =
  let saved = T.current () in
  T.set_current None;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    T.count "search.aborted" 1
  done;
  let words = Gc.minor_words () -. before in
  T.set_current saved;
  Alcotest.(check (float 0.)) "10,000 Tracer.count with no tracer" 0. words

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_masking () =
  let t = T.create ~capacity:16 () in
  T.instant t ~args:[ ("wall", T.Ns 123456789L); ("n", T.Count 7) ] "tick";
  T.bump (Some (T.counter t "io_wait_ns")) 424242;
  T.bump (Some (T.counter t "io_ops")) 3;
  let s = T.render_masked t in
  Alcotest.(check bool) "Ns arg elided" false (contains s "123456789");
  Alcotest.(check bool) "_ns counter elided" false (contains s "424242");
  Alcotest.(check bool) "Count arg kept" true (contains s "n=7");
  Alcotest.(check bool) "plain counter kept" true (contains s "io_ops 3")

(* ------------------------------------------------------------------ *)
(* determinism law: same seed, sequential session => identical masked
   trace. The trace is only evidence if it is as reproducible as the
   replay itself. *)

let masked_session_trace model seed =
  let t = T.create () in
  T.with_current t (fun () ->
      let app = Adder.app () in
      let prepared = Session.prepare model app in
      let original, log = Session.record prepared ~seed in
      let outcome = Session.replay prepared log in
      ignore (Session.assess prepared ~original ~log outcome));
  T.render_masked t

let test_trace_determinism_qcheck =
  QCheck.Test.make ~name:"same seed => byte-identical masked trace"
    ~count:10
    QCheck.(int_range 0 1000)
    (fun seed ->
      let a = masked_session_trace Model.Value seed in
      let b = masked_session_trace Model.Value seed in
      a = b)

let test_trace_covers_phases () =
  let s = masked_session_trace Model.Value 1 in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " span present") true (contains s phase))
    [ "session.record"; "session.replay"; "session.assess" ];
  Alcotest.(check bool) "search counters present" true
    (contains s "search.attempts")

(* ------------------------------------------------------------------ *)
(* monotonic deadlines (regression: deadline_of used to read
   Unix.gettimeofday, so a wall-clock step moved every deadline) *)

let fake_clock step =
  let t = ref 0L in
  fun () ->
    t := Int64.add !t step;
    !t

let test_deadline_unit () =
  let open Ddet_replay in
  (* a frozen clock: deadlines convert but never fire *)
  Clock.with_source
    (fun () -> 5_000L)
    (fun () ->
      let budget = { Search.default_budget with Search.deadline_s = Some 2.0 } in
      (match Search.deadline_of budget with
      | Some d ->
        Alcotest.(check int64) "absolute instant = now + allowance"
          (Int64.add 5_000L 2_000_000_000L)
          d
      | None -> Alcotest.fail "deadline_of dropped the allowance");
      Alcotest.(check bool) "no deadline never passes" false
        (Search.deadline_passed (Search.deadline_of
             { budget with Search.deadline_s = None }));
      Alcotest.(check bool) "frozen clock: not passed" false
        (Search.deadline_passed (Search.deadline_of budget));
      Alcotest.(check bool) "no deadline, no cancel hook" true
        (Search.wall_cancel None = None);
      (* an already-expired instant cancels with the canonical reason *)
      match Search.wall_cancel (Some 4_999L) with
      | None -> Alcotest.fail "expired deadline must cancel"
      | Some f ->
        Alcotest.(check (option string))
          "cancel names the deadline"
          (Some Search.deadline_reason) (f ()))

let test_deadline_fires_exactly_at_allowance () =
  let open Ddet_replay in
  (* hand-advanced clock: 0.3 s per read. deadline_of reads once (t0),
     so the instant is t0 + 1 s; three more reads stay under it, the
     next is past. *)
  Clock.with_source
    (fake_clock 300_000_000L)
    (fun () ->
      let budget =
        { Search.default_budget with Search.deadline_s = Some 1.0 }
      in
      let d = Search.deadline_of budget in
      (* t0 = 0.3; deadline = 1.3. reads at 0.6 / 0.9 / 1.2 hold... *)
      Alcotest.(check bool) "0.6s: holds" false (Search.deadline_passed d);
      Alcotest.(check bool) "0.9s: holds" false (Search.deadline_passed d);
      Alcotest.(check bool) "1.2s: holds" false (Search.deadline_passed d);
      (* ...and 1.5 is past the 1.3 instant *)
      Alcotest.(check bool) "1.5s: fired" true (Search.deadline_passed d))

let test_engine_deadline_no_sleep () =
  let open Ddet_replay in
  let app = Adder.app () in
  (* every clock read burns 0.2 s of fake time; nothing sleeps. The
     search must stop on the deadline long before its attempt budget. *)
  Clock.with_source
    (fake_clock 200_000_000L)
    (fun () ->
      let budget =
        {
          Search.max_attempts = 100_000;
          max_steps_per_attempt = 400;
          base_seed = 7;
          deadline_s = Some 1.0;
        }
      in
      let outcome =
        Search.random_restarts budget
          ~make:(fun ~attempt -> (Mvm.World.random ~seed:attempt, None))
          ~spec:app.App.spec
          ~accept:(fun _ -> false)
          app.App.labeled
      in
      Alcotest.(check bool) "deadline ended the search" true
        outcome.Search.stats.Search.deadline_hit;
      Alcotest.(check bool) "well before the attempt budget" true
        (outcome.Search.stats.Search.attempts < 100))

(* A run the deadline's poll cut short is not an attempt: nothing judges
   it, and the search ends as the deadline check before it would have.
   Under a clock that advances 1 ms per read, a 1.5 ms deadline falls at
   2.5 ms: attempt 1 passes the check before it (2 ms) and is cut by the
   poll at its first step (3 ms). *)
let cut_at_first_attempt f =
  let tight =
    { Ddet_replay.Search.default_budget with deadline_s = Some 0.0015 }
  in
  Clock.with_source (fake_clock 1_000_000L) (fun () -> f tight)

(* miniht seed 1000 passes, so the cut run, empty and failure-free,
   would "reproduce" it if it were judged *)
let test_deadline_cut_not_accepted () =
  let prepared = Session.prepare Model.Failure_det (Miniht.app ()) in
  let _, log = Session.record prepared ~seed:1000 in
  let o =
    cut_at_first_attempt (fun budget -> Session.replay ~budget prepared log)
  in
  Alcotest.(check bool) "nothing reproduced" true
    (o.Ddet_replay.Replayer.result = None);
  Alcotest.(check bool) "deadline_hit" true o.Ddet_replay.Replayer.deadline_hit;
  Alcotest.(check int) "no attempt" 0 o.Ddet_replay.Replayer.attempts

(* the input odometer must not advance from the cut probe's truncated
   fan-outs: its checkpoint re-runs attempt 1 *)
let test_deadline_cut_resumes () =
  let open Ddet_replay in
  let app = Adder.app () in
  let seed =
    match Workload.find_failing_seed app with
    | Some (seed, _) -> seed
    | None -> Alcotest.fail "adder has no failing seed"
  in
  let prepared = Session.prepare Model.Output app in
  let _, log = Session.record prepared ~seed in
  let full = Session.replay prepared log in
  let file = Filename.temp_file "ddet_obs" ".ckpt" in
  let cut =
    cut_at_first_attempt (fun budget ->
        Session.replay ~budget ~checkpoint:(Checkpoint.sink ~every:1 file)
          prepared log)
  in
  let resume =
    match Checkpoint.load file with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  Sys.remove file;
  let resumed = Session.replay ~resume prepared log in
  Alcotest.(check bool) "deadline_hit" true cut.Replayer.deadline_hit;
  Alcotest.(check bool) "uninterrupted run reproduces" true
    (full.Replayer.result <> None);
  Alcotest.(check bool) "resumed verdict" true (resumed.Replayer.result <> None);
  Alcotest.(check int) "resumed attempts" full.Replayer.attempts
    resumed.Replayer.attempts;
  Alcotest.(check int) "resumed steps" full.Replayer.total_steps
    resumed.Replayer.total_steps

(* ------------------------------------------------------------------ *)
(* a replay that misses says why (ROADMAP item 1): the search counts
   judged attempts cut by the step cap apart from those an abort hook
   cut, and the RCSE oracle counts the picks that found the log head at
   no candidate (stalls), those that had to run a risky candidate, and
   the strict attempts it ended because the log could no longer be
   followed: the head's thread stood at a later logged site (held), or
   the head waited longer than the recorded run (starved) *)

(* [f]'s result under a fresh tracer, the tracer's counter lookup, and
   the args of its [oracle.rcse_diverged] instants *)
let traced f =
  let t = T.create () in
  let r = T.with_current t f in
  ( r,
    (fun name -> Option.value ~default:0 (List.assoc_opt name (T.counters t))),
    List.filter_map
      (fun (e : T.ev) ->
        if e.T.kind = T.I && e.T.name = "oracle.rcse_diverged" then Some e.T.args
        else None)
      (T.events t) )

let three_attempts = { Ddet_replay.Search.default_budget with max_attempts = 3 }

let replay_rcse_code app ~seed =
  traced (fun () ->
      let prepared = Session.prepare (Model.Rcse Model.Code_based) app in
      let _, log = Session.record prepared ~seed in
      Session.replay ~budget:three_attempts prepared log)

(* each attempt of msg_server's code-based RCSE replay follows the log
   for 74 steps, then finds the head (t0, s11) at no candidate while t0
   stands at s14, which the log records later: rule 1 ends it there,
   not at the step cap *)
let test_rcse_held_counters () =
  let outcome, value, diverged = replay_rcse_code (Msg_server.app ()) ~seed:1 in
  Alcotest.(check bool) "not reproduced" true
    (outcome.Ddet_replay.Replayer.result = None);
  Alcotest.(check int) "search.attempts" 3 (value "search.attempts");
  Alcotest.(check int) "search.step_cap_hits" 0 (value "search.step_cap_hits");
  Alcotest.(check int) "search.aborted" 3 (value "search.aborted");
  Alcotest.(check int) "oracle.rcse_held" 3 (value "oracle.rcse_held");
  Alcotest.(check int) "oracle.rcse_starved" 0 (value "oracle.rcse_starved");
  if value "search.steps" >= 1_000 then
    Alcotest.failf "search.steps %d, not under 1,000" (value "search.steps");
  Alcotest.(check (list (list (pair string int))))
    "one instant: attempt 1's divergence"
    [ [ ("attempt", 1); ("step", 74); ("tid", 0); ("sid", 11); ("stands_at", 14) ] ]
    (List.map
       (List.map (function k, T.Count n -> (k, n) | k, T.Ns _ -> (k, -1)))
       diverged)

(* miniht seed 110052's head thread blocks behind threads that run on
   safely, so no candidate is ever held: rule 2 ends each attempt once
   the head has waited at no candidate longer than the recorded run *)
let test_rcse_starved_counters () =
  let outcome, value, diverged = replay_rcse_code (Miniht.app ()) ~seed:110_052 in
  Alcotest.(check bool) "not reproduced" true
    (outcome.Ddet_replay.Replayer.result = None);
  Alcotest.(check int) "search.step_cap_hits" 0 (value "search.step_cap_hits");
  Alcotest.(check int) "search.aborted" 3 (value "search.aborted");
  Alcotest.(check int) "oracle.rcse_starved" 3 (value "oracle.rcse_starved");
  Alcotest.(check int) "oracle.rcse_held" 0 (value "oracle.rcse_held");
  match diverged with
  | [ args ] ->
    Alcotest.(check bool) "the instant names attempt 1 and no site" true
      (List.assoc_opt "attempt" args = Some (T.Count 1)
      && List.assoc_opt "stands_at" args = Some (T.Count (-1)))
  | l -> Alcotest.failf "%d oracle.rcse_diverged instants, not 1" (List.length l)

(* cloudstore's sync replay of seed 16 leaves the recorded per-object
   orders in each of its first three attempts: the abort hook ends every
   one, well short of the step cap *)
let test_sync_abort_counters () =
  let outcome, value, _ =
    traced (fun () ->
        let prepared = Session.prepare Model.Sync (Cloudstore.app ()) in
        let _, log = Session.record prepared ~seed:16 in
        Session.replay ~budget:three_attempts prepared log)
  in
  Alcotest.(check bool) "not reproduced" true
    (outcome.Ddet_replay.Replayer.result = None);
  Alcotest.(check int) "search.attempts" 3 (value "search.attempts");
  Alcotest.(check int) "search.aborted" 3 (value "search.aborted");
  Alcotest.(check int) "search.step_cap_hits" 0 (value "search.step_cap_hits")

(* no shipped log drives RCSE to tier 3, so this one is built: every
   step of a perfect recording of miniht as a strict RCSE schedule,
   behind a head entry [(tid, sid)] that no run reaches *)
let headed_log =
  let perfect =
    lazy
      (snd
         (Session.record (Session.prepare Model.Perfect (Miniht.app ())) ~seed:1))
  in
  fun (tid, sid) ->
    let open Ddet_record.Log in
    let perfect = Lazy.force perfect in
    {
      perfect with
      entries =
        Cp_sched { tid; sid }
        :: List.map
             (fun (tid, sid) -> Cp_sched { tid; sid })
             (sched_points perfect);
    }

let replay_headed log =
  let app = Miniht.app () in
  traced (fun () ->
      Ddet_replay.Replayer.rcse ~budget:three_attempts app.App.labeled
        ~spec:app.App.spec log)

(* a thread no run spawns heads the log: each attempt's first pick
   stalls with its only candidate pending, runs it anyway (a risky
   pick), and the step it takes comes out of log order, which aborts the
   attempt *)
let test_rcse_risky_counters () =
  let outcome, value, _ = replay_headed (headed_log (1_000, 0)) in
  Alcotest.(check bool) "not reproduced" true
    (outcome.Ddet_replay.Replayer.result = None);
  Alcotest.(check int) "search.aborted" 3 (value "search.aborted");
  Alcotest.(check int) "search.step_cap_hits" 0 (value "search.step_cap_hits");
  Alcotest.(check int) "oracle.rcse_stalls" 3 (value "oracle.rcse_stalls");
  Alcotest.(check int) "oracle.rcse_risky" 3 (value "oracle.rcse_risky")

(* Strict RCSE's table of pending pairs is indexed by site, and its size
   never comes from the log: a head naming a pair outside every program
   (a sid of max_int, a negative sid, a tid of 2^40) replays exactly as
   the unreachable small pair above does, and the oracle built from it
   is no larger. Its size is read as the words a minor collection
   promotes while the oracle is live; an oracle that sized its table
   from the largest sid in the log would fail to build, or outgrow the
   small pair's by the table. *)
let test_rcse_out_of_program_heads () =
  let oracle_words log =
    Gc.minor ();
    let before = (Gc.quick_stat ()).Gc.major_words in
    let h = Ddet_replay.Oracle.rcse ~strict:true ~seed:2 log in
    Gc.minor ();
    let words = (Gc.quick_stat ()).Gc.major_words -. before in
    ignore (Sys.opaque_identity h);
    words
  in
  let small = headed_log (1_000, 0) in
  let small_words = oracle_words small in
  let ref_outcome, ref_value, _ = replay_headed small in
  let judged (o : Ddet_replay.Replayer.outcome) =
    match o.Ddet_replay.Replayer.partial with
    | Some p ->
      ( p.Ddet_replay.Search.attempt,
        p.Ddet_replay.Search.closeness,
        Mvm.Trace.events p.Ddet_replay.Search.best.Mvm.Interp.trace )
    | None -> Alcotest.fail "a built log replays to a partial candidate"
  in
  List.iter
    (fun (name, pair) ->
      let log = headed_log pair in
      let words = oracle_words log in
      if words > small_words +. 64. then
        Alcotest.failf "%s: the oracle holds %.0f words, the small pair's %.0f"
          name words small_words;
      let outcome, value, _ = replay_headed log in
      Alcotest.(check bool) (name ^ ": not reproduced") true
        (outcome.Ddet_replay.Replayer.result = None);
      Alcotest.(check int) (name ^ ": attempts") ref_outcome.Ddet_replay.Replayer.attempts
        outcome.Ddet_replay.Replayer.attempts;
      Alcotest.(check int) (name ^ ": steps")
        ref_outcome.Ddet_replay.Replayer.total_steps
        outcome.Ddet_replay.Replayer.total_steps;
      Alcotest.(check bool) (name ^ ": judged run") true
        (judged ref_outcome = judged outcome);
      List.iter
        (fun c -> Alcotest.(check int) (name ^ ": " ^ c) (ref_value c) (value c))
        [ "search.aborted"; "search.step_cap_hits"; "oracle.rcse_stalls";
          "oracle.rcse_risky"; "oracle.rcse_held"; "oracle.rcse_starved" ])
    [
      ("sid max_int", (1, max_int));
      ("tid 2^40", (1 lsl 40, 1));
      ("negative sid", (1, -1));
    ]

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "exact fill, no drops" `Quick test_ring_exact_fill;
          Alcotest.test_case "wraparound keeps the tail" `Quick
            test_ring_wraparound;
          QCheck_alcotest.to_alcotest test_ring_drop_accuracy_qcheck;
          Alcotest.test_case "masked render elides wall time" `Quick
            test_masking;
          Alcotest.test_case "a count with no tracer allocates nothing" `Quick
            test_disabled_count_allocates_nothing;
        ] );
      ( "determinism",
        [
          QCheck_alcotest.to_alcotest test_trace_determinism_qcheck;
          Alcotest.test_case "trace covers the session phases" `Quick
            test_trace_covers_phases;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "monotonic conversion and expiry" `Quick
            test_deadline_unit;
          Alcotest.test_case "fires exactly at the allowance" `Quick
            test_deadline_fires_exactly_at_allowance;
          Alcotest.test_case "engine stops on fake clock, no sleep" `Quick
            test_engine_deadline_no_sleep;
          Alcotest.test_case "a run the deadline cut is never accepted" `Quick
            test_deadline_cut_not_accepted;
          Alcotest.test_case "a run the deadline cut resumes from its checkpoint"
            `Quick test_deadline_cut_resumes;
        ] );
      ( "miss-counters",
        [
          Alcotest.test_case "a held RCSE head ends the attempt and names its site"
            `Quick test_rcse_held_counters;
          Alcotest.test_case "a starved RCSE head ends the attempt" `Quick
            test_rcse_starved_counters;
          Alcotest.test_case "aborted attempts are not step-cap hits" `Quick
            test_sync_abort_counters;
          Alcotest.test_case "a head no thread reaches forces risky picks"
            `Quick test_rcse_risky_counters;
          Alcotest.test_case
            "an out-of-program head replays as an unreachable one, table unsized"
            `Quick test_rcse_out_of_program_heads;
        ] );
    ]
