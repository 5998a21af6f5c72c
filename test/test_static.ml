(* The static analysis suite: call-graph/thread-reachability, lockset race
   candidates, static plane classification, the linter, and the RCSE /
   search wiring derived from them — including the qcheck soundness law
   (static candidates cover every dynamic happens-before race) and a
   precision measurement on the proggen corpus. *)

open Mvm
open Ddet_static
module P = Ddet_analysis.Plane

let apps () =
  Ddet_apps.
    [ Adder.app (); Bufover.app (); Msg_server.app (); Miniht.app ();
      Cloudstore.app () ]

(* ------------------------------------------------------------------ *)
(* fixtures *)

(* the quickstart lost-update counter: one entry spawned twice *)
let racy =
  Dsl.(
    program ~name:"racy" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" []
          [
            spawn "w" []; spawn "w" []; recv "d1" "done"; recv "d2" "done";
            output "total" (g "c");
          ];
        func "w" []
          [
            assign "t" (g "c"); store_g "c" (v "t" +: i 1); send "done" (i 1);
          ];
      ])

(* same shape with every access under one lock: no race candidates.
   (Main's read must be locked too — the lockset analysis cannot see
   that the two [recv]s order it after the workers.) *)
let locked =
  Dsl.(
    program ~name:"locked" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" []
          [
            spawn "w" []; spawn "w" []; recv "d1" "done"; recv "d2" "done";
            lock "m"; assign "r" (g "c"); unlock "m"; output "total" (v "r");
          ];
        func "w" []
          [
            lock "m"; assign "t" (g "c"); store_g "c" (v "t" +: i 1);
            unlock "m"; send "done" (i 1);
          ];
      ])

(* main touches the region before and after its spawns: only the
   post-spawn write can race *)
let prologue_prog =
  Dsl.(
    program ~name:"prologue" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" []
          [
            store_g "c" (i 1);
            spawn "w" [];
            store_g "c" (i 2);
            recv "d" "done";
          ];
        func "w" [] [ store_g "c" (i 3); send "done" (i 1) ];
      ])

let candidates_of labeled =
  Lockset.candidates (Lockset.analyze (Callgraph.build labeled))

(* ------------------------------------------------------------------ *)
(* callgraph *)

let test_entries () =
  let g = Callgraph.build racy in
  let find e =
    List.find (fun (x : Callgraph.entry) -> x.entry = e) (Callgraph.entries g)
  in
  Alcotest.(check bool) "main single" true ((find "main").mult = Callgraph.Single);
  Alcotest.(check bool) "w many (spawned twice)" true
    ((find "w").mult = Callgraph.Many);
  let gp = Callgraph.build prologue_prog in
  let find e =
    List.find (fun (x : Callgraph.entry) -> x.entry = e) (Callgraph.entries gp)
  in
  Alcotest.(check bool) "w single (one spawn in main)" true
    ((find "w").mult = Callgraph.Single)

let test_prologue () =
  let g = Callgraph.build prologue_prog in
  let pre_spawn_write =
    (* the first statement of main is the pre-spawn store *)
    List.find
      (fun (a : Callgraph.access) -> a.fname = "main" && a.write)
      (List.sort
         (fun (a : Callgraph.access) b -> compare a.sid b.sid)
         (Callgraph.accesses g))
  in
  Alcotest.(check bool) "pre-spawn write is prologue" true
    (Callgraph.in_prologue g pre_spawn_write.sid);
  let cands = candidates_of prologue_prog in
  Alcotest.(check bool) "post-spawn writes race" true (cands <> []);
  Alcotest.(check bool) "prologue site in no candidate" true
    (List.for_all
       (fun (c : Lockset.candidate) ->
         c.a.Callgraph.sid <> pre_spawn_write.sid
         && c.b.Callgraph.sid <> pre_spawn_write.sid)
       cands)

(* ------------------------------------------------------------------ *)
(* lockset race candidates *)

let test_racy_counter () =
  let cands = candidates_of racy in
  Alcotest.(check bool) "has candidates" true (cands <> []);
  (* the store races with itself across the two instances of w *)
  Alcotest.(check bool) "self-race on the unlocked store" true
    (List.exists
       (fun (c : Lockset.candidate) ->
         c.a.Callgraph.sid = c.b.Callgraph.sid && c.a.Callgraph.write)
       cands)

let test_locked_counter () =
  Alcotest.(check int) "lock kills all candidates" 0
    (List.length (candidates_of locked))

let test_app_candidates () =
  let by_name n = List.find (fun a -> a.Ddet_apps.App.name = n) (apps ()) in
  let mini = candidates_of (by_name "miniht").Ddet_apps.App.labeled in
  Alcotest.(check bool) "miniht: the paper's migration race (owner_0)" true
    (List.exists
       (fun (c : Lockset.candidate) ->
         c.region = "owner_0"
         && c.a.Callgraph.fname = "master"
         && c.b.Callgraph.fname = "route")
       mini);
  let cloud = candidates_of (by_name "cloudstore").Ddet_apps.App.labeled in
  Alcotest.(check int) "cloudstore: single-owner regions, no candidates" 0
    (List.length cloud);
  let msg = candidates_of (by_name "msg_server").Ddet_apps.App.labeled in
  Alcotest.(check bool) "msg_server: producer/producer cursor race" true
    (List.exists
       (fun (c : Lockset.candidate) ->
         c.region = "cursor"
         && c.a.Callgraph.fname = "producer0"
         && c.b.Callgraph.fname = "producer1")
       msg)

(* ------------------------------------------------------------------ *)
(* index compatibility: Const_idx i pairs only with Const_idx i; Var_idx
   pairs with everything, including itself across thread instances *)

let two_writers idx0 idx1 =
  Dsl.(
    program ~name:"indexed"
      ~regions:[ array "arr" 4 (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [
        func "main" [] [ spawn "w0" []; spawn "w1" [] ];
        func "w0" [] [ assign "k" (i 1); store "arr" idx0 (i 1) ];
        func "w1" [] [ assign "k" (i 2); store "arr" idx1 (i 2) ];
      ])

let test_index_compat () =
  let n a b = List.length (candidates_of (two_writers a b)) in
  Alcotest.(check int) "distinct constant indices never pair" 0
    (n Dsl.(i 0) Dsl.(i 1));
  Alcotest.(check bool) "equal constant indices pair" true
    (n Dsl.(i 2) Dsl.(i 2) > 0);
  Alcotest.(check bool) "variable index pairs with a constant" true
    (n Dsl.(v "k") Dsl.(i 3) > 0);
  Alcotest.(check bool) "variable index pairs with a variable" true
    (n Dsl.(v "k") Dsl.(v "k") > 0);
  (* a twice-spawned writer with a variable index races with itself *)
  let self =
    Dsl.(
      program ~name:"self"
        ~regions:[ array "arr" 4 (Value.int 0) ]
        ~inputs:[] ~main:"main"
        [
          func "main" [] [ spawn "w" []; spawn "w" [] ];
          func "w" [] [ assign "k" (i 1); store "arr" (v "k") (i 1) ];
        ])
  in
  Alcotest.(check bool) "variable-indexed store self-races" true
    (List.exists
       (fun (c : Lockset.candidate) -> c.a.Callgraph.sid = c.b.Callgraph.sid)
       (candidates_of self))

let prop_index_compat =
  QCheck2.Test.make
    ~name:"no candidate ever pairs two distinct constant indices" ~count:60
    ~print:(fun p -> Printf.sprintf "program seed %d" p)
    QCheck2.Gen.(int_range 1 10_000)
    (fun pseed ->
      let labeled = Proggen.generate Proggen.default (Prng.create pseed) in
      List.for_all
        (fun (c : Lockset.candidate) ->
          match (c.a.Callgraph.index, c.b.Callgraph.index) with
          | Callgraph.Const_idx x, Callgraph.Const_idx y -> x = y
          | _ -> true)
        (candidates_of labeled))

(* ------------------------------------------------------------------ *)
(* node-aware MHP *)

let fifo_prog =
  Dsl.(
    program ~name:"fifo" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" [] [ spawn "w" []; store_g "c" (i 1); send "go" (i 1) ];
        func "w" [] [ recv "z" "go"; store_g "c" (i 2) ];
      ])

let fifo_map =
  Node.make ~nodes:[ "n0"; "n1" ] ~assign:[ ("main", "n0"); ("w", "n1") ]

let test_mhp_fifo_orders () =
  let graph = Callgraph.build fifo_prog in
  Alcotest.(check bool) "plain lockset pairs the stores" true
    (Lockset.candidates (Lockset.analyze graph) <> []);
  let mhp = Mhp.analyze ~map:fifo_map graph in
  Alcotest.(check bool) "unique-message channel found" true
    (Mhp.fifos mhp <> []);
  Alcotest.(check int) "send->recv ordering kills the candidate" 0
    (List.length (Lockset.candidates (Lockset.analyze ~mhp graph)))

let test_mhp_loop_defeats_order () =
  (* the send re-executes in a loop: the one-message argument is gone,
     so nothing may be ordered and the candidate must survive *)
  let prog =
    Dsl.(
      program ~name:"fifo-loop" ~regions:[ scalar "c" (Value.int 0) ]
        ~inputs:[] ~main:"main"
        [
          func "main" []
            [
              spawn "w" []; store_g "c" (i 1);
              while_ (g "c" <: i 2) [ send "go" (i 1) ];
            ];
          func "w" [] [ recv "z" "go"; store_g "c" (i 2) ];
        ])
  in
  let graph = Callgraph.build prog in
  let mhp = Mhp.analyze ~map:fifo_map graph in
  Alcotest.(check bool) "no fifo claimed" true (Mhp.fifos mhp = []);
  Alcotest.(check int) "refined = plain"
    (List.length (Lockset.candidates (Lockset.analyze graph)))
    (List.length (Lockset.candidates (Lockset.analyze ~mhp graph)))

let test_mhp_try_recv_defeats_order () =
  (* a competing try_recv can steal the one message, so the blocking
     recv's ordering cannot be trusted *)
  let prog =
    Dsl.(
      program ~name:"fifo-steal" ~regions:[ scalar "c" (Value.int 0) ]
        ~inputs:[] ~main:"main"
        [
          func "main" [] [ spawn "w" []; store_g "c" (i 1); send "go" (i 1) ];
          func "w" []
            [ try_recv "ok" "z" "go"; recv "z" "go"; store_g "c" (i 2) ];
        ])
  in
  let mhp = Mhp.analyze ~map:fifo_map (Callgraph.build prog) in
  Alcotest.(check bool) "no fifo claimed" true (Mhp.fifos mhp = [])

let test_mhp_subset_law_unit () =
  let graph = Callgraph.build fifo_prog in
  let mhp = Mhp.analyze ~map:fifo_map graph in
  let accs = Callgraph.accesses graph in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Mhp.concurrent mhp a b then
            Alcotest.(check bool) "mhp-concurrent implies cg-concurrent" true
              (Callgraph.concurrent graph a b))
        accs)
    accs

(* ------------------------------------------------------------------ *)
(* communication lint *)

let comm_rules ~map labeled =
  List.map
    (fun (f : Lint.finding) -> (f.Lint.severity, f.Lint.rule))
    (Commlint.run ~map labeled)

let test_comm_deadlock () =
  (* three single-threaded nodes in a static wait cycle: nobody has sent
     anything when everybody blocks *)
  let labeled =
    Dsl.(
      program ~name:"cycle" ~regions:[] ~inputs:[] ~main:"main"
        [
          func "main" []
            [ spawn "left" []; spawn "right" []; recv "x" "done0" ];
          func "left" []
            [ recv "p" "ping"; send "pong" (i 1); send "done0" (i 1) ];
          func "right" [] [ recv "q" "pong"; send "ping" (i 1) ];
        ])
  in
  let map =
    Node.make
      ~nodes:[ "a"; "b"; "c" ]
      ~assign:[ ("main", "a"); ("left", "b"); ("right", "c") ]
  in
  let fs = Commlint.run ~map labeled in
  Alcotest.(check bool) "deadlock found" true (Commlint.has_deadlock fs);
  Alcotest.(check int) "all three nodes reported" 3
    (List.length
       (List.filter (fun (f : Lint.finding) -> f.Lint.rule = "comm-deadlock") fs));
  Alcotest.(check bool) "reported as errors" true
    (List.for_all
       (fun (f : Lint.finding) -> f.Lint.severity = Lint.Error)
       (List.filter (fun (f : Lint.finding) -> f.Lint.rule = "comm-deadlock") fs))

let test_comm_rpc_clean () =
  (* send-then-wait request/response: the client produced its request
     before blocking, so no wait cycle exists *)
  let labeled =
    Dsl.(
      program ~name:"rpc" ~regions:[] ~inputs:[] ~main:"main"
        [
          func "main" [] [ spawn "srv" []; send "req" (i 1); recv "x" "resp" ];
          func "srv" [] [ recv "y" "req"; send "resp" (v "y") ];
        ])
  in
  let map =
    Node.make ~nodes:[ "a"; "b" ] ~assign:[ ("main", "a"); ("srv", "b") ]
  in
  Alcotest.(check int) "no findings" 0 (List.length (comm_rules ~map labeled))

let test_comm_orphan_send () =
  let labeled =
    Dsl.(
      program ~name:"orphan" ~regions:[] ~inputs:[] ~main:"main"
        [ func "main" [] [ send "nowhere" (i 1) ] ])
  in
  let map = Node.make ~nodes:[ "a" ] ~assign:[ ("main", "a") ] in
  Alcotest.(check bool) "orphan send is a warning" true
    (List.mem (Lint.Warning, "comm-orphan-send") (comm_rules ~map labeled))

let test_comm_unreachable_sender () =
  (* the thread waits for a message only its own later statement could
     send — statically wedged even on one node *)
  let labeled =
    Dsl.(
      program ~name:"self-wait" ~regions:[] ~inputs:[] ~main:"main"
        [ func "main" [] [ recv "x" "ch"; send "ch" (i 1) ] ])
  in
  let map = Node.make ~nodes:[ "a" ] ~assign:[ ("main", "a") ] in
  Alcotest.(check bool) "unreachable sender is an error" true
    (List.mem (Lint.Error, "comm-unreachable-sender") (comm_rules ~map labeled))

let test_comm_apps_clean () =
  List.iter
    (fun (a : Ddet_apps.App.t) ->
      match a.Ddet_apps.App.nodes with
      | None -> ()
      | Some map ->
        Alcotest.(check (list string))
          (a.name ^ " comm-lints clean")
          []
          (List.map
             (fun (f : Lint.finding) -> Fmt.str "%a" Lint.pp_finding f)
             (Commlint.run ~map a.labeled)))
    (apps ())

(* ------------------------------------------------------------------ *)
(* static plane classification *)

let test_plane_ground_truth () =
  List.iter
    (fun (a : Ddet_apps.App.t) ->
      let map = Splane.classify a.labeled.Label.prog in
      List.iter
        (fun (f : Ast.func) ->
          let truth =
            if a.control_plane = [] || List.mem f.fname a.control_plane then
              P.Control
            else P.Data
          in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s" a.name f.fname)
            (P.to_string truth)
            (P.to_string (P.plane_of map f.fname)))
        a.labeled.Label.prog.Ast.funcs)
    (apps ())

let test_plane_tie_break () =
  let prog_with len =
    Dsl.(
      program ~name:"tie"
        ~regions:[ scalar "s" (Value.str "") ]
        ~inputs:[ ("in", [ Value.str (String.make len 'x') ]) ]
        ~main:"main"
        [ func "main" [] [ input "x" "in"; store_g "s" (v "x") ] ])
  in
  let at len =
    P.plane_of (Splane.classify (prog_with len).Label.prog) "main"
  in
  (* weight == threshold ties toward Control, matching Plane.classify's
     strict comparison; one byte more flips to Data *)
  Alcotest.(check string) "at threshold: control" "control"
    (P.to_string (at Splane.default_threshold));
  Alcotest.(check string) "above threshold: data" "data"
    (P.to_string (at (Splane.default_threshold + 1)))

(* ------------------------------------------------------------------ *)
(* linter *)

let lint_rules labeled =
  List.map (fun (f : Lint.finding) -> (f.severity, f.rule)) (Lint.run labeled)

let test_lint_rules () =
  let expect_error prog rule =
    Alcotest.(check bool)
      (rule ^ " fires as error")
      true
      (List.mem (Lint.Error, rule) (lint_rules prog))
  in
  let mk body =
    Dsl.(
      program ~name:"bad"
        ~regions:[ scalar "c" (Value.int 0); array "a" 4 (Value.int 0) ]
        ~inputs:[] ~main:"main"
        [ func "main" [] body; func "aux" [ "p" ] [ send "ch" (v "p") ] ])
  in
  expect_error (mk Dsl.[ lock "m"; lock "m"; unlock "m"; unlock "m" ]) "double-lock";
  expect_error (mk Dsl.[ unlock "m" ]) "unlock-not-held";
  expect_error (mk Dsl.[ lock "m" ]) "lock-imbalance";
  expect_error
    (mk Dsl.[ lock "m"; return (i 0); unlock "m" ])
    "lock-imbalance";
  expect_error
    (mk Dsl.[ while_ (g "c" <: i 3) [ lock "m" ] ])
    "loop-locks";
  expect_error (mk Dsl.[ atomic [ recv "x" "ch" ] ]) "atomic-blocking";
  expect_error (mk Dsl.[ atomic [ lock "m" ]; lock "m"; unlock "m" ]) "atomic-blocking";
  expect_error (mk Dsl.[ atomic [ call "aux" [ i 1 ] ] ]) "atomic-blocking";
  expect_error (mk Dsl.[ store "a" (i 9) (i 1) ]) "index-range";
  expect_error (mk Dsl.[ store "a" (i (-1)) (i 1) ]) "index-range";
  expect_error (mk Dsl.[ recv "x" "silent" ]) "recv-never-sent";
  expect_error (mk Dsl.[ call "aux" [] ]) "arity";
  (* warnings *)
  let warns prog rule = List.mem (Lint.Warning, rule) (lint_rules prog) in
  Alcotest.(check bool) "unreachable is a warning" true
    (warns (mk Dsl.[ return (i 0); store_g "c" (i 1) ]) "unreachable");
  Alcotest.(check bool) "try_recv never-sent is a warning" true
    (warns (mk Dsl.[ try_recv "ok" "x" "silent" ]) "recv-never-sent");
  Alcotest.(check bool) "branch lockset disagreement is a warning" true
    (warns
       (mk
          Dsl.
            [
              if_ (g "c" =: i 0) [ lock "m" ] [];
              if_ (g "c" =: i 0) [ unlock "m" ] [];
            ])
       "branch-locks")

let test_lint_corpus_clean () =
  List.iter
    (fun (a : Ddet_apps.App.t) ->
      Alcotest.(check (list string))
        (a.name ^ " lints clean")
        []
        (List.map (fun (f : Lint.finding) -> Fmt.str "%a" Lint.pp_finding f)
           (Lint.run a.labeled)))
    (apps ())

(* ------------------------------------------------------------------ *)
(* RCSE wiring: trigger, selectors, prioritized worlds *)

let test_trigger_of_sites () =
  let t = Ddet_analysis.Trigger.of_sites [ 7 ] in
  let ev kind sid =
    { Event.step = 0; tid = 1; sid; fname = "f"; kind }
  in
  let acc =
    { Event.region = "r"; index = None; value = Value.untainted (Value.int 1) }
  in
  Alcotest.(check bool) "fires on suspect write" true
    (t.Ddet_analysis.Trigger.fired (ev (Event.Write acc) 7));
  Alcotest.(check bool) "fires on suspect read" true
    (t.Ddet_analysis.Trigger.fired (ev (Event.Read acc) 7));
  Alcotest.(check bool) "ignores other sites" false
    (t.Ddet_analysis.Trigger.fired (ev (Event.Write acc) 8));
  Alcotest.(check bool) "ignores non-access events" false
    (t.Ddet_analysis.Trigger.fired (ev Event.Step 7))

let test_by_site_selector () =
  let sel =
    Ddet_record.Fidelity_level.by_site ~name:"s" (fun sid ->
        if sid = 3 then Ddet_record.Fidelity_level.High
        else Ddet_record.Fidelity_level.Low)
  in
  let ev sid = { Event.step = 0; tid = 0; sid; fname = "f"; kind = Event.Step } in
  Alcotest.(check string) "site 3 high" "high"
    (Ddet_record.Fidelity_level.to_string (sel.Ddet_record.Fidelity_level.level (ev 3)));
  Alcotest.(check string) "site 4 low" "low"
    (Ddet_record.Fidelity_level.to_string (sel.Ddet_record.Fidelity_level.level (ev 4)))

let test_prioritized_world () =
  let mk tid sid = World.cand ~tid ~sid ~fname:"f" in
  let cands = [ mk 0 10; mk 1 20 ] in
  let w = World.prioritized ~seed:42 ~prefer:(fun c -> c.World.sid = 20) in
  let hot = ref 0 in
  for _ = 1 to 1000 do
    if w.World.pick_thread ~step:0 cands = 1 then incr hot
  done;
  Alcotest.(check bool)
    (Printf.sprintf "suspect thread strongly preferred (%d/1000)" !hot)
    true
    (!hot > 700 && !hot < 1000);
  (* same seed, same decisions *)
  let run seed =
    let w = World.prioritized ~seed ~prefer:(fun c -> c.World.sid = 20) in
    List.init 50 (fun _ -> w.World.pick_thread ~step:0 cands)
  in
  Alcotest.(check (list int)) "deterministic in the seed" (run 7) (run 7);
  (* no hot candidates: still picks everything eventually *)
  let w = World.prioritized ~seed:1 ~prefer:(fun _ -> false) in
  let seen = Array.make 2 false in
  for _ = 1 to 100 do
    seen.(w.World.pick_thread ~step:0 cands) <- true
  done;
  Alcotest.(check bool) "uniform fallback reaches all threads" true
    (seen.(0) && seen.(1))

(* the static trigger selector records a failing ABL-RACE run whose rcse
   replay reproduces the failure *)
let test_static_trigger_end_to_end () =
  let app =
    List.find (fun a -> a.Ddet_apps.App.name = "msg_server") (apps ())
  in
  let seed, _ =
    Option.get (Ddet_apps.Workload.find_failing_seed app)
  in
  let report = Static_report.analyze app.labeled in
  Alcotest.(check bool) "msg_server has suspect sites" true
    (Static_report.suspect_sids report <> []);
  let recorder =
    Ddet_record.Recorder.rcse (Static_report.trigger_selector report)
  in
  let original, log =
    Ddet_record.Recorder.record recorder app.labeled ~spec:app.spec
      ~world:(World.random ~seed)
  in
  Alcotest.(check bool) "recorded run fails" true
    (original.Interp.failure <> None);
  let o =
    Ddet_replay.Replayer.rcse ~strict:false app.labeled ~spec:app.spec log
  in
  Alcotest.(check bool) "rcse replay reproduces the failure" true
    (o.Ddet_replay.Replayer.result <> None);
  (* the cheapest configuration — interleaving logged only at the
     suspect sites themselves — must also reproduce *)
  let original, log =
    Ddet_record.Recorder.record
      (Ddet_record.Recorder.rcse (Static_report.site_selector report))
      app.labeled ~spec:app.spec ~world:(World.random ~seed)
  in
  Alcotest.(check bool) "site-selector recording fails too" true
    (original.Interp.failure <> None);
  let o =
    Ddet_replay.Replayer.rcse ~strict:false app.labeled ~spec:app.spec log
  in
  Alcotest.(check bool) "site-granular replay reproduces the failure" true
    (o.Ddet_replay.Replayer.result <> None)

(* site-priority hint flows through the failure-determinism searcher *)
let test_priority_search () =
  let app =
    List.find (fun a -> a.Ddet_apps.App.name = "msg_server") (apps ())
  in
  let seed, _ = Option.get (Ddet_apps.Workload.find_failing_seed app) in
  let report = Static_report.analyze app.labeled in
  let priority =
    { Ddet_replay.Search.sids = Static_report.suspect_sids report }
  in
  let _, log =
    Ddet_record.Recorder.record
      Ddet_record.Recorder.failure
      app.labeled ~spec:app.spec ~world:(World.random ~seed)
  in
  let o =
    Ddet_replay.Replayer.failure_det ~priority app.labeled ~spec:app.spec log
  in
  Alcotest.(check bool) "prioritized search reproduces the failure" true
    (o.Ddet_replay.Replayer.result <> None)

(* ------------------------------------------------------------------ *)
(* soundness law + precision on the proggen corpus *)

let dynamic_races labeled ~wseed =
  let det = Ddet_analysis.Hb_detector.create () in
  let r = Interp.run ~max_steps:20_000 labeled (World.random ~seed:wseed) in
  List.iter
    (fun e -> ignore (Ddet_analysis.Hb_detector.observe det e))
    (Trace.events r.Interp.trace);
  Ddet_analysis.Hb_detector.reports det

let covers cands (rep : Ddet_analysis.Race_detector.report) =
  let lo = min rep.sid_first rep.sid_second
  and hi = max rep.sid_first rep.sid_second in
  List.exists
    (fun (c : Lockset.candidate) ->
      c.region = rep.region
      && c.a.Callgraph.sid = lo
      && c.b.Callgraph.sid = hi)
    cands

let prop_soundness =
  QCheck2.Test.make
    ~name:"every dynamic hb race has a matching static candidate" ~count:40
    ~print:(fun (p, w) -> Printf.sprintf "program seed %d, world seed %d" p w)
    QCheck2.Gen.(map2 (fun p w -> (p, w)) (int_range 1 5_000) (int_range 1 5_000))
    (fun (pseed, wseed) ->
      let labeled = Proggen.generate Proggen.default (Prng.create pseed) in
      let cands = candidates_of labeled in
      List.for_all (covers cands) (dynamic_races labeled ~wseed))

let test_precision () =
  (* how many candidates does a bounded dynamic exploration confirm? A
     lower bound on precision: unconfirmed candidates may still be real
     races on unexplored schedules. *)
  let confirmed = ref 0 and total = ref 0 in
  for pseed = 0 to 19 do
    let labeled = Proggen.generate Proggen.default (Prng.create pseed) in
    let cands = candidates_of labeled in
    total := !total + List.length cands;
    let hit = Hashtbl.create 16 in
    for wseed = 0 to 9 do
      List.iter
        (fun (rep : Ddet_analysis.Race_detector.report) ->
          if covers cands rep then
            Hashtbl.replace hit
              ( rep.region,
                min rep.sid_first rep.sid_second,
                max rep.sid_first rep.sid_second )
              ())
        (dynamic_races labeled ~wseed:(1000 + (97 * pseed) + wseed))
    done;
    confirmed := !confirmed + Hashtbl.length hit
  done;
  let rate = float_of_int !confirmed /. float_of_int (max 1 !total) in
  Printf.printf "corpus precision: %d/%d candidates dynamically confirmed (%.0f%%)\n"
    !confirmed !total (100. *. rate);
  Alcotest.(check bool) "corpus produces candidates" true (!total > 0);
  Alcotest.(check bool)
    (Printf.sprintf "confirmation rate %.2f is nontrivial" rate)
    true (rate > 0.2)

(* ------------------------------------------------------------------ *)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "static"
    [
      ( "callgraph",
        [
          Alcotest.test_case "thread entries and multiplicity" `Quick
            test_entries;
          Alcotest.test_case "main prologue cannot race" `Quick test_prologue;
        ] );
      ( "lockset",
        [
          Alcotest.test_case "unlocked counter races with itself" `Quick
            test_racy_counter;
          Alcotest.test_case "a common lock removes the pair" `Quick
            test_locked_counter;
          Alcotest.test_case "app candidates match the known bugs" `Quick
            test_app_candidates;
          Alcotest.test_case "index compatibility" `Quick test_index_compat;
        ] );
      ( "mhp",
        [
          Alcotest.test_case "unique message orders send before recv" `Quick
            test_mhp_fifo_orders;
          Alcotest.test_case "looped send defeats ordering" `Quick
            test_mhp_loop_defeats_order;
          Alcotest.test_case "competing try_recv defeats ordering" `Quick
            test_mhp_try_recv_defeats_order;
          Alcotest.test_case "mhp refines callgraph concurrency" `Quick
            test_mhp_subset_law_unit;
        ] );
      ( "commlint",
        [
          Alcotest.test_case "three-node wait cycle deadlocks" `Quick
            test_comm_deadlock;
          Alcotest.test_case "send-then-wait rpc is clean" `Quick
            test_comm_rpc_clean;
          Alcotest.test_case "orphan send warns" `Quick test_comm_orphan_send;
          Alcotest.test_case "self-only sender errors" `Quick
            test_comm_unreachable_sender;
          Alcotest.test_case "shipped node apps are clean" `Quick
            test_comm_apps_clean;
        ] );
      ( "splane",
        [
          Alcotest.test_case "matches ground truth on all apps" `Quick
            test_plane_ground_truth;
          Alcotest.test_case "threshold tie breaks to control" `Quick
            test_plane_tie_break;
        ] );
      ( "lint",
        [
          Alcotest.test_case "each rule fires on its counterexample" `Quick
            test_lint_rules;
          Alcotest.test_case "shipped apps are clean" `Quick
            test_lint_corpus_clean;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "trigger fires on suspect accesses" `Quick
            test_trigger_of_sites;
          Alcotest.test_case "by-site fidelity selector" `Quick
            test_by_site_selector;
          Alcotest.test_case "prioritized world bias and fallback" `Quick
            test_prioritized_world;
          Alcotest.test_case "static trigger record -> rcse replay" `Slow
            test_static_trigger_end_to_end;
          Alcotest.test_case "priority-hinted failure search" `Slow
            test_priority_search;
        ] );
      ( "laws",
        [
          qc prop_soundness;
          qc prop_index_compat;
          Alcotest.test_case "precision on the corpus" `Slow test_precision;
        ] );
    ]
