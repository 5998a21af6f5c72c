(* Cross-node static analysis against live distributed evidence: the
   message-flow graph on the shipped apps, the causal soundness law on
   generated node-annotated programs (every dynamic cross-node edge is in
   the static over-approximation), static shard priority driving the
   write order, and statically-steered partial-evidence search doing no
   worse than the uninformed one. *)

open Mvm
open Ddet
open Ddet_record
open Ddet_replay
open Ddet_apps
open Ddet_static

let tmpdir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddet-sdist-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let fresh_base =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (tmpdir ()) (Printf.sprintf "rec%d" !n)

let msg_server = Msg_server.app ()
let msg_map = Option.get msg_server.App.nodes

let plan_of_string s =
  match Fault.of_string s with Ok p -> p | Error e -> Alcotest.fail e

let partition_plan = plan_of_string "seed=5,partition:server+p0|p1:10-80"

let record_failing ?(plan = partition_plan) ?(max_seed = 60) () =
  let prepared = Session.prepare Model.Perfect msg_server in
  let rec scan seed =
    if seed > max_seed then
      Alcotest.fail "no failing msg_server seed under the fault plan"
    else
      let original, log, causal =
        Session.record_dist ~faults:plan prepared ~seed
      in
      match original.Interp.failure with
      | Some (Failure.Spec_violation _) when original.Interp.steps < 5_000 ->
        (prepared, original, log, causal)
      | _ -> scan (seed + 1)
  in
  scan 1

let small_budget =
  {
    Search.max_attempts = 60;
    max_steps_per_attempt = 20_000;
    base_seed = 1;
    deadline_s = None;
  }

(* ------------------------------------------------------------------ *)
(* message-flow graph on the shipped topology *)

let test_msgflow_msg_server () =
  let flow = Msgflow.analyze ~map:msg_map msg_server.App.labeled in
  Alcotest.(check (list string))
    "channels" [ "done0"; "done1"; "fin0"; "fin1" ] (Msgflow.channels flow);
  (* each producer reports on its own done channel; the server confirms
     on the matching fin channel — and nothing else crosses nodes *)
  Alcotest.(check bool) "done0: p0 -> server" true
    (Msgflow.has_edge flow ~chan:"done0" ~from_node:"p0" ~to_node:"server");
  Alcotest.(check bool) "fin1: server -> p1" true
    (Msgflow.has_edge flow ~chan:"fin1" ~from_node:"server" ~to_node:"p1");
  Alcotest.(check bool) "p1 never sends done0" false
    (Msgflow.has_edge flow ~chan:"done0" ~from_node:"p1" ~to_node:"server");
  Alcotest.(check int) "four cross edges"
    4
    (List.length (Msgflow.cross_edges flow));
  (* reachability: producers talk to the server and back, never to each
     other directly — but transitively p0 reaches p1 through the server *)
  Alcotest.(check bool) "p0 reaches server" true
    (Msgflow.reaches flow "p0" "server");
  Alcotest.(check bool) "server reaches p1" true
    (Msgflow.reaches flow "server" "p1");
  Alcotest.(check bool) "p0 reaches p1 via server" true
    (Msgflow.reaches flow "p0" "p1");
  (* every channel is hot when one producer is lost: done0 lands on the
     server, and the fin/done cycle forwards onwards *)
  Alcotest.(check bool) "done0 hot when p0 lost" true
    (List.mem "done0"
       (Msgflow.hot_channels flow ~lost:[ "p0" ] ~survivors:[ "server"; "p1" ]))

let test_report_views () =
  let report =
    Static_report.analyze ~nodes:msg_map msg_server.App.labeled
  in
  let views = Static_report.node_views report in
  Alcotest.(check (list string))
    "view order" [ "server"; "p0"; "p1" ]
    (List.map (fun (v : Static_report.node_view) -> v.node) views);
  let p0 =
    List.find (fun (v : Static_report.node_view) -> v.node = "p0") views
  in
  Alcotest.(check (list int)) "p0 tids" [ 1 ] p0.tids;
  Alcotest.(check (list string)) "p0 functions" [ "producer0" ] p0.fnames;
  Alcotest.(check bool) "p0 has suspects" true (p0.suspects <> []);
  Alcotest.(check (list string))
    "p0 channels" [ "done0"; "fin0" ] p0.channels;
  (* the producers carry the shared-counter suspects, so they outrank
     the server in shard priority *)
  Alcotest.(check (list string))
    "shard priority" [ "p0"; "p1"; "server" ]
    (Static_report.shard_priority report)

let test_steer_hints () =
  let report =
    Static_report.analyze ~nodes:msg_map msg_server.App.labeled
  in
  let h = Static_report.steer report ~lost:[ "p0" ] in
  Alcotest.(check (list int)) "lost tids" [ 1 ] h.Oracle.lost_tids;
  Alcotest.(check bool) "hot sids nonempty" true
    (h.Oracle.hot_sids <> []);
  (* p0 statically reaches the server, so its inputs stay searchable *)
  Alcotest.(check (list int)) "no cold threads" []
    h.Oracle.cold_input_tids

let test_steer_cold_isolated_node () =
  (* a node with no communication sites provably never influenced a
     survivor: its threads' inputs are pinned, not searched *)
  let labeled =
    Dsl.(
      program ~name:"iso" ~regions:[ scalar "c" (Value.int 0) ]
        ~inputs:[ ("x", [ Value.int 0; Value.int 1 ]) ]
        ~main:"main"
        [
          func "main" [] [ spawn "hermit" []; store_g "c" (i 1) ];
          func "hermit" [] [ input "t" "x"; assign "u" (v "t") ];
        ])
  in
  let map =
    Node.make ~nodes:[ "a"; "b" ] ~assign:[ ("main", "a"); ("hermit", "b") ]
  in
  let report = Static_report.analyze ~nodes:map labeled in
  let h = Static_report.steer report ~lost:[ "b" ] in
  Alcotest.(check (list int)) "hermit tid lost" [ 1 ] h.Oracle.lost_tids;
  Alcotest.(check (list int)) "hermit inputs pinned" [ 1 ]
    h.Oracle.cold_input_tids

(* ------------------------------------------------------------------ *)
(* soundness laws on generated node-annotated programs *)

let prop_causal_soundness =
  QCheck2.Test.make
    ~name:"every dynamic cross-node causal edge is a static msgflow edge"
    ~count:40
    ~print:(fun (p, w) ->
      Printf.sprintf "program seed %d, world seed %d" p w)
    QCheck2.Gen.(
      map2 (fun p w -> (p, w)) (int_range 1 5_000) (int_range 1 5_000))
    (fun (pseed, wseed) ->
      let labeled, map =
        Proggen.generate_nodes Proggen.default (Prng.create pseed)
      in
      let flow = Msgflow.analyze ~map labeled in
      let on_event, finish =
        Causal.monitor ~map ~main_fname:labeled.Label.prog.Ast.main ()
      in
      ignore
        (Interp.run ~max_steps:20_000 ~monitors:[ on_event ] labeled
           (World.random ~seed:wseed));
      let causal = finish () in
      List.for_all
        (fun (e : Causal.edge) ->
          Msgflow.has_edge flow ~chan:e.Causal.chan
            ~from_node:e.Causal.send_node ~to_node:e.Causal.recv_node)
        causal.Causal.edges)

let prop_mhp_subset =
  QCheck2.Test.make
    ~name:"node-aware mhp only ever shrinks callgraph concurrency"
    ~count:40
    ~print:(fun p -> Printf.sprintf "program seed %d" p)
    QCheck2.Gen.(int_range 1 5_000)
    (fun pseed ->
      let labeled, map =
        Proggen.generate_nodes Proggen.default (Prng.create pseed)
      in
      let graph = Callgraph.build labeled in
      let mhp = Mhp.analyze ~map graph in
      let accs = Callgraph.accesses graph in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              (not (Mhp.concurrent mhp a b)) || Callgraph.concurrent graph a b)
            accs)
        accs)

(* ------------------------------------------------------------------ *)
(* static shard priority drives the write order *)

let test_priority_write_order () =
  let prepared, _original, log, causal = record_failing () in
  let order = ref [] in
  let s = Store.local () in
  let capture p =
    if Filename.check_suffix p ".shard" && not (List.mem p !order) then
      order := !order @ [ p ]
  in
  let store =
    {
      s with
      Store.write =
        (fun p b ->
          capture p;
          s.Store.write p b);
    }
  in
  let priority = Session.shard_priority prepared in
  Alcotest.(check (list string))
    "priority from the static report" [ "p0"; "p1"; "server" ] priority;
  let base = fresh_base () in
  let report = Sharded_log.save_via ~priority store ~base ~causal log in
  Alcotest.(check bool) "save ok" true (Sharded_log.save_ok report);
  let node_of p = Scanf.sscanf (Filename.basename p) "%_s@.%s@.shard" Fun.id in
  Alcotest.(check (list string))
    "shards written most-diagnostic first" [ "p0"; "p1"; "server" ]
    (List.map node_of !order);
  (* the report stays in node order regardless of the write order *)
  Alcotest.(check (list string))
    "report in node order" [ "server"; "p0"; "p1" ]
    (List.map fst report.Sharded_log.shard_results);
  (* and the recording loads back whole *)
  match Sharded_log.load base with
  | Error e -> Alcotest.fail e
  | Ok loaded ->
    Alcotest.(check bool) "manifest complete" true
      loaded.Sharded_log.manifest_complete

(* a prepared session analyzes its app once: a second call shares the
   first report, whose shard order is a fresh analysis's; an app
   without a node map has none *)
let test_static_report_shared () =
  let prepared = Session.prepare Model.Perfect msg_server in
  (match (Session.static_report prepared, Session.static_report prepared) with
  | Some a, Some b ->
    Alcotest.(check bool) "second call returns the same report" true (a == b)
  | _ -> Alcotest.fail "msg_server must have a static report");
  let fresh = Static_report.analyze ~nodes:msg_map msg_server.App.labeled in
  Alcotest.(check (list string))
    "shard priority of a fresh analysis" (Static_report.shard_priority fresh)
    (Session.shard_priority prepared);
  Alcotest.(check (list string))
    "shard priority" [ "p0"; "p1"; "server" ] (Session.shard_priority prepared);
  Alcotest.(check bool) "no node map, no report" true
    (Session.static_report (Session.prepare Model.Perfect (Adder.app ())) = None)

(* ------------------------------------------------------------------ *)
(* statically-steered partial-evidence search *)

let steer_of prepared (st : Stitch.t) =
  match Session.static_report prepared with
  | None -> Alcotest.fail "msg_server must have a static report"
  | Some report -> Static_report.steer report ~lost:st.Stitch.lost

(* losing each node in turn: the steered search must reproduce whatever
   the uninformed search reproduces, in no more attempts — the static
   hints only concentrate the search, they never exclude a schedule *)
let test_steered_no_worse () =
  let prepared, original, log, causal = record_failing () in
  let base = fresh_base () in
  ignore (Sharded_log.save_via (Store.local ()) ~base ~causal log);
  List.iter
    (fun node ->
      let loaded =
        match Sharded_log.load ~lose:[ node ] base with
        | Ok l -> l
        | Error e -> Alcotest.fail e
      in
      let st = Stitch.stitch loaded in
      let run ?steer () =
        Replayer.stitched ~budget:small_budget ?steer
          prepared.Session.app.App.labeled ~spec:msg_server.App.spec st
      in
      let plain = run () in
      let steered = run ~steer:(steer_of prepared st) () in
      let code = Replayer.exit_code steered in
      Alcotest.(check bool)
        (Printf.sprintf "lose %s: steered honest exit %d" node code)
        true
        (code = Replayer.exit_ok || code = Replayer.exit_partial);
      (match steered.Replayer.result with
      | Some r ->
        Alcotest.(check bool)
          (Printf.sprintf "lose %s: failure class preserved" node)
          true
          (match (original.Interp.failure, r.Interp.failure) with
          | Some (Failure.Spec_violation a), Some (Failure.Spec_violation b)
            ->
            String.equal a b
          | Some _, Some _ -> true
          | _ -> false)
      | None -> ());
      if Replayer.exit_code plain = Replayer.exit_ok then (
        Alcotest.(check bool)
          (Printf.sprintf "lose %s: steered reproduces too" node)
          true
          (Replayer.exit_code steered = Replayer.exit_ok);
        Alcotest.(check bool)
          (Printf.sprintf "lose %s: steered attempts %d <= plain %d" node
             steered.Replayer.attempts plain.Replayer.attempts)
          true
          (steered.Replayer.attempts <= plain.Replayer.attempts)))
    (Node.nodes msg_map)

let () =
  Alcotest.run "static-dist"
    [
      ( "msgflow",
        [
          Alcotest.test_case "msg_server topology" `Quick
            test_msgflow_msg_server;
          Alcotest.test_case "per-node report views" `Quick test_report_views;
          Alcotest.test_case "steer hints on a lost producer" `Quick
            test_steer_hints;
          Alcotest.test_case "isolated node pins its inputs" `Quick
            test_steer_cold_isolated_node;
        ] );
      ( "laws",
        [
          QCheck_alcotest.to_alcotest prop_causal_soundness;
          QCheck_alcotest.to_alcotest prop_mhp_subset;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "priority-ordered shard writes" `Quick
            test_priority_write_order;
          Alcotest.test_case "static report analyzed once" `Quick
            test_static_report_shared;
          Alcotest.test_case "steered search no worse than uninformed" `Slow
            test_steered_no_worse;
        ] );
    ]
