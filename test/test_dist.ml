(* Distributed evidence: node-granular faults, per-node sharded logs,
   causal stitching and partial-evidence replay.

   The scenarios mirror the datacenter story end to end: record an app
   under a partition (and a node crash), shard the log per node through
   a hostile store, lose and corrupt shards independently, and show that
   replay still reproduces the original failure from what survived —
   with the degradation reported as per-node DF, never as a crash or a
   silent full-fidelity claim. *)

open Mvm
open Ddet
open Ddet_record
open Ddet_replay
open Ddet_apps

let tmpdir () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ddet-dist-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let fresh_base =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (tmpdir ()) (Printf.sprintf "rec%d" !n)

let msg_server = Msg_server.app ()

let plan_of_string s =
  match Fault.of_string s with Ok p -> p | Error e -> Alcotest.fail e

let partition_plan = plan_of_string "seed=5,partition:server+p0|p1:10-80"

(* A recorded failing run under the partition, sharded: the shared
   fixture most tests start from. Seeds are scanned adaptively so the
   fixture does not depend on one lucky constant. *)
let record_failing ?(plan = partition_plan) ?(max_seed = 60) () =
  let prepared = Session.prepare Model.Perfect msg_server in
  let rec scan seed =
    if seed > max_seed then
      Alcotest.fail "no failing msg_server seed under the fault plan"
    else
      let original, log, causal = Session.record_dist ~faults:plan prepared ~seed in
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
(* node maps and fault lowering *)

let test_node_map () =
  let map = Option.get msg_server.App.nodes in
  let prog = msg_server.App.labeled.Label.prog in
  Alcotest.(check (list string))
    "nodes" [ "server"; "p0"; "p1" ] (Node.nodes map);
  Alcotest.(check (list int)) "server tids" [ 0 ] (Node.members map prog "server");
  Alcotest.(check (list int)) "p0 tids" [ 1 ] (Node.members map prog "p0");
  Alcotest.(check (list int)) "p1 tids" [ 2 ] (Node.members map prog "p1");
  (* done1/fin1 connect server and p1: exactly the channels a
     server+p0 | p1 partition cuts *)
  let cut =
    Node.cut_channels map prog ~groups:[ [ "server"; "p0" ]; [ "p1" ] ]
  in
  Alcotest.(check (list string)) "cut channels" [ "done1"; "fin1" ] cut

let test_lowering () =
  let prog = msg_server.App.labeled.Label.prog in
  let map = Option.get msg_server.App.nodes in
  let plan =
    plan_of_string "seed=5,partition:server+p0|p1:10-80,nodecrash:p1:200"
  in
  let lowered = Fault.lower ~map ~prog plan in
  Alcotest.(check bool) "no node faults left" false (Fault.has_node_faults lowered);
  Alcotest.(check string) "lowered plan"
    "seed=5,delay:done1:10-80,delay:fin1:10-80,crash:2:200"
    (Fault.to_string lowered);
  (* inject refuses sugar it cannot interpret *)
  Alcotest.check_raises "inject refuses un-lowered plans"
    (Invalid_argument
       (Printf.sprintf
          "Fault.inject: plan %S contains node-granular faults; lower it \
           against the app's node map first (Fault.lower)"
          (Fault.to_string plan)))
    (fun () -> ignore (Fault.inject plan (World.random ~seed:1)))

(* ------------------------------------------------------------------ *)
(* shard roundtrip *)

let test_roundtrip () =
  let _prepared, _original, log, causal = record_failing () in
  (* the split loses nothing: every entry lands in exactly one shard *)
  let shards = Sharded_log.split ~causal log in
  let total =
    List.fold_left (fun n (_, s) -> n + List.length s.Log.entries) 0 shards
  in
  Alcotest.(check int) "split conserves entries"
    (List.length log.Log.entries) total;
  let base = fresh_base () in
  let report = Sharded_log.save_via (Store.local ()) ~base ~causal log in
  Alcotest.(check bool) "save ok" true (Sharded_log.save_ok report);
  let loaded =
    match Sharded_log.load base with Ok l -> l | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "manifest complete" true loaded.Sharded_log.manifest_complete;
  List.iter
    (fun (s : Sharded_log.shard) ->
      Alcotest.(check string) "intact" "intact"
        (Sharded_log.status_name s.Sharded_log.status))
    loaded.Sharded_log.shards;
  let st = Stitch.stitch loaded in
  Alcotest.(check bool) "stitch complete" true st.Stitch.complete;
  (* byte-identical reconstruction: the merge IS the original log *)
  Alcotest.(check string) "stitched log = original log"
    (Log_io.to_string log)
    (Log_io.to_string st.Stitch.log)

(* ------------------------------------------------------------------ *)
(* the headline scenario: partition + node crash, one shard corrupted
   by hostile I/O, another deleted — replay still reproduces, with
   per-node DF and lost nodes at the 1/n floor *)

let test_partial_evidence_reproduces () =
  let prepared, original, log, causal =
    record_failing
      ~plan:
        (plan_of_string "seed=5,partition:server+p0|p1:10-80,nodecrash:p1:330")
      ()
  in
  let base = fresh_base () in
  (* corrupt one shard on its way to disk: deterministic torn write on
     op 4 (p1's shard; each shard is a write and an fsync, in node order)
     through the hostile-store layer *)
  let io_plan =
    match Faulty_store.of_string "seed=3,torn:4:0.4" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let faulty, _stats = Faulty_store.wrap io_plan (Store.local ()) in
  let report = Sharded_log.save_via faulty ~base ~causal log in
  Alcotest.(check (list string)) "only p1's shard write failed" [ "p1" ]
    (List.filter_map
       (function
         | node, Error e when e.Store.e_op = Store.Write -> Some node
         | node, Error _ -> Some ("non-write " ^ node)
         | _, Ok () -> None)
       report.Sharded_log.shard_results);
  (* and delete another node's shard outright *)
  Sys.remove (base ^ ".p0.shard");
  let loaded =
    match Sharded_log.load base with Ok l -> l | Error e -> Alcotest.fail e
  in
  let st = Stitch.stitch loaded in
  Alcotest.(check bool) "not complete" false st.Stitch.complete;
  Alcotest.(check bool) "p0 lost" true (List.mem "p0" st.Stitch.lost);
  let outcome =
    Replayer.stitched ~budget:small_budget prepared.Session.app.App.labeled
      ~spec:msg_server.App.spec st
  in
  (match outcome.Replayer.result with
  | Some r ->
    Alcotest.(check bool) "same failure class" true
      (match (original.Interp.failure, r.Interp.failure) with
      | Some (Failure.Spec_violation a), Some (Failure.Spec_violation b) ->
        String.equal a b
      | _ -> false)
  | None -> Alcotest.fail "partial-evidence search did not reproduce");
  Alcotest.(check int) "exit 0: reproduction from partial evidence"
    Replayer.exit_ok
    (Replayer.exit_code outcome);
  (* honest accounting: per-node DF, lost node at the floor, combined
     floor reported, degraded flagged *)
  let a =
    Session.assess ~evidence:st.Stitch.evidence prepared ~original ~log outcome
  in
  let floor =
    1. /. float_of_int (Ddet_metrics.Root_cause.n_causes msg_server.App.catalog)
  in
  Alcotest.(check bool) "degraded" true a.Ddet_metrics.Utility.degraded;
  Alcotest.(check (option (float 1e-9))) "combined floor" (Some floor)
    a.Ddet_metrics.Utility.df_floor;
  Alcotest.(check (list string)) "lost nodes" [ "p0" ]
    a.Ddet_metrics.Utility.lost_nodes;
  (match List.assoc_opt "p0" a.Ddet_metrics.Utility.node_df with
  | Some d -> Alcotest.(check (float 1e-9)) "lost node at floor" floor d
  | None -> Alcotest.fail "no per-node DF for p0");
  match List.assoc_opt "server" a.Ddet_metrics.Utility.node_df with
  | Some d ->
    Alcotest.(check bool) "intact node backs measured DF" true
      (d >= floor -. 1e-9)
  | None -> Alcotest.fail "no per-node DF for server"

let test_all_lost_is_honest () =
  let _prepared, _original, log, causal = record_failing () in
  let base = fresh_base () in
  ignore (Sharded_log.save_via (Store.local ()) ~base ~causal log);
  let loaded =
    match Sharded_log.load ~lose:[ "server"; "p0"; "p1" ] base with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check bool) "all lost" true (Sharded_log.all_lost loaded);
  let st = Stitch.stitch loaded in
  Alcotest.(check int) "nothing stitched" 0 (List.length st.Stitch.log.Log.entries);
  Alcotest.(check int) "no edges enforced" 0 (List.length st.Stitch.edges_enforced)

(* losing one node must not force all-or-nothing failure even when the
   complete-evidence replay would have been a plain perfect replay *)
let test_lose_each_node () =
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
      Alcotest.(check (list string)) "lost" [ node ] st.Stitch.lost;
      let outcome =
        Replayer.stitched ~budget:small_budget
          prepared.Session.app.App.labeled ~spec:msg_server.App.spec st
      in
      let code = Replayer.exit_code outcome in
      (* reproduced (0) or degraded to a best partial (3) — never a
         crash, never exhaustion-with-nothing *)
      Alcotest.(check bool)
        (Printf.sprintf "lose %s: honest exit %d" node code)
        true
        (code = Replayer.exit_ok || code = Replayer.exit_partial);
      match outcome.Replayer.result with
      | Some r ->
        Alcotest.(check bool) "failure class preserved" true
          (match (original.Interp.failure, r.Interp.failure) with
          | Some (Failure.Spec_violation a), Some (Failure.Spec_violation b) ->
            String.equal a b
          | _ -> false)
      | None -> ())
    [ "server"; "p0"; "p1" ]

(* ------------------------------------------------------------------ *)
(* every-byte truncation sweep over the causal manifest: recovery may
   lose edges but must never fabricate one (satellite of the segment
   manifest sweeps) *)

let test_manifest_truncation_sweep () =
  let _prepared, _original, log, causal = record_failing () in
  let base = fresh_base () in
  ignore (Sharded_log.save_via (Store.local ()) ~base ~causal log);
  let manifest_path = base ^ ".causal" in
  let whole =
    let ic = open_in_bin manifest_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let true_edges = causal.Causal.edges in
  let edge_mem e =
    List.exists
      (fun (t : Causal.edge) ->
        String.equal t.Causal.chan e.Causal.chan
        && String.equal t.Causal.send_node e.Causal.send_node
        && t.Causal.send_seq = e.Causal.send_seq
        && String.equal t.Causal.recv_node e.Causal.recv_node
        && t.Causal.recv_seq = e.Causal.recv_seq)
      true_edges
  in
  Alcotest.(check bool) "fixture has cross-node edges" true (true_edges <> []);
  for keep = 0 to String.length whole do
    let oc = open_out_bin manifest_path in
    output_string oc (String.sub whole 0 keep);
    close_out oc;
    match Sharded_log.load base with
    | Error e ->
      Alcotest.fail
        (Printf.sprintf "truncation at %d refused to load: %s" keep e)
    | Ok loaded ->
      (* no fabricated ordering: every recovered edge is a true edge *)
      List.iter
        (fun e ->
          if not (edge_mem e) then
            Alcotest.fail
              (Printf.sprintf "truncation at %d fabricated edge on %S" keep
                 e.Causal.chan))
        loaded.Sharded_log.edges;
      (* and the stitcher still yields a usable merge *)
      ignore (Stitch.stitch loaded)
  done;
  (* restore the intact manifest and confirm full recovery *)
  let oc = open_out_bin manifest_path in
  output_string oc whole;
  close_out oc;
  match Sharded_log.load base with
  | Ok l ->
    Alcotest.(check int) "all edges recovered" (List.length true_edges)
      (List.length l.Sharded_log.edges)
  | Error e -> Alcotest.fail e

(* a bit-flipped manifest line must be dropped by its CRC, not trusted *)
let test_manifest_bitflip () =
  let _prepared, _original, log, causal = record_failing () in
  let base = fresh_base () in
  ignore (Sharded_log.save_via (Store.local ()) ~base ~causal log);
  let manifest_path = base ^ ".causal" in
  let whole =
    let ic = open_in_bin manifest_path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* mangle exactly one CRC'd line (the last non-empty one): the line's
     CRC must reject it, flagging the manifest incomplete *)
  let lines = String.split_on_char '\n' whole in
  let last_ix =
    let ix = ref (-1) in
    List.iteri (fun i l -> if String.length l > 0 then ix := i) lines;
    !ix
  in
  let flipped =
    List.mapi (fun i l -> if i = last_ix then l ^ "x" else l) lines
    |> String.concat "\n"
  in
  let oc = open_out_bin manifest_path in
  output_string oc flipped;
  close_out oc;
  match Sharded_log.load base with
  | Ok loaded ->
    Alcotest.(check bool) "bit-flip voids completeness" false
      loaded.Sharded_log.manifest_complete
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* shard files that do not belong, or cannot be read *)

(* a shard that cannot be read is lost evidence, not a zero-entry
   salvage: it is corrupt, the stitcher lists it as lost, and the
   assessment puts it at the floor *)
let test_unreadable_shard () =
  let prepared, original, log, causal =
    record_failing
      ~plan:
        (plan_of_string "seed=5,partition:server+p0|p1:10-80,nodecrash:p1:330")
      ()
  in
  let base = fresh_base () in
  ignore (Sharded_log.save_via (Store.local ()) ~base ~causal log);
  let p0 = base ^ ".p0.shard" in
  Sys.remove p0;
  Unix.mkdir p0 0o755;
  let loaded =
    match Sharded_log.load base with Ok l -> l | Error e -> Alcotest.fail e
  in
  Unix.rmdir p0;
  List.iter
    (fun (s : Sharded_log.shard) ->
      Alcotest.(check string) (s.Sharded_log.node ^ " status")
        (if s.Sharded_log.node = "p0" then "corrupt" else "intact")
        (Sharded_log.status_name s.Sharded_log.status))
    loaded.Sharded_log.shards;
  let st = Stitch.stitch loaded in
  Alcotest.(check (list string)) "p0 lost" [ "p0" ] st.Stitch.lost;
  let outcome =
    Replayer.stitched ~budget:small_budget prepared.Session.app.App.labeled
      ~spec:msg_server.App.spec st
  in
  let a =
    Session.assess ~evidence:st.Stitch.evidence prepared ~original ~log outcome
  in
  Alcotest.(check (list string)) "lost nodes" [ "p0" ]
    a.Ddet_metrics.Utility.lost_nodes;
  let floor =
    1. /. float_of_int (Ddet_metrics.Root_cause.n_causes msg_server.App.catalog)
  in
  match List.assoc_opt "p0" a.Ddet_metrics.Utility.node_df with
  | Some d -> Alcotest.(check bool) "p0 at most the floor" true (d <= floor)
  | None -> Alcotest.fail "no per-node DF for p0"

(* [d/run.old] is a sibling of [d/run], not a part of it: saving [d/run]
   keeps the sibling's shards, and a manifest-less load of [d/run] does
   not adopt them *)
let test_sibling_recording () =
  let _prepared, _original, log, causal = record_failing () in
  let base = fresh_base () in
  let sibling = base ^ ".old" in
  List.iter
    (fun b ->
      Alcotest.(check bool) (b ^ " saved") true
        (Sharded_log.save_ok
           (Sharded_log.save_via (Store.local ()) ~base:b ~causal log)))
    [ sibling; base ];
  (match Sharded_log.load sibling with
  | Ok l ->
    Alcotest.(check bool) "sibling stitches complete" true
      (Stitch.stitch l).Stitch.complete
  | Error e -> Alcotest.fail e);
  Sys.remove (base ^ ".causal");
  match Sharded_log.load base with
  | Ok l ->
    Alcotest.(check (list string)) "manifest-less load finds its own nodes"
      [ "p0"; "p1"; "server" ] l.Sharded_log.nodes
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* cloudstore has a node map too: record under a partition and stitch *)

let test_cloudstore_partition () =
  let app = Cloudstore.app () in
  let map = Option.get app.App.nodes in
  Alcotest.(check (list string)) "cloudstore nodes"
    [ "coord"; "primary"; "secondary"; "client0"; "client1" ]
    (Node.nodes map);
  let plan =
    plan_of_string "seed=2,partition:coord+primary+client0+client1|secondary:50-400"
  in
  let prepared = Session.prepare Model.Perfect app in
  let rec scan seed =
    if seed > 40 then Alcotest.fail "no failing cloudstore seed"
    else
      let original, log, causal = Session.record_dist ~faults:plan prepared ~seed in
      match original.Interp.failure with
      | Some _ when original.Interp.steps < 20_000 -> (original, log, causal)
      | _ -> scan (seed + 1)
  in
  let _original, log, causal = scan 1 in
  let base = fresh_base () in
  let report = Sharded_log.save_via (Store.local ()) ~base ~causal log in
  Alcotest.(check bool) "save ok" true (Sharded_log.save_ok report);
  let loaded =
    match Sharded_log.load ~lose:[ "secondary" ] base with
    | Ok l -> l
    | Error e -> Alcotest.fail e
  in
  let st = Stitch.stitch loaded in
  Alcotest.(check (list string)) "secondary lost" [ "secondary" ] st.Stitch.lost;
  Alcotest.(check bool) "survivors keep their entries" true
    (List.length st.Stitch.log.Log.entries > 0);
  let outcome =
    Replayer.stitched ~budget:small_budget prepared.Session.app.App.labeled
      ~spec:app.App.spec st
  in
  Alcotest.(check bool) "reproduces without the secondary's shard" true
    (outcome.Replayer.result <> None)

let () =
  Alcotest.run "dist"
    [
      ( "nodes",
        [
          Alcotest.test_case "map, members, cut channels" `Quick test_node_map;
          Alcotest.test_case "fault lowering" `Quick test_lowering;
        ] );
      ( "shards",
        [
          Alcotest.test_case "split+save+load+stitch roundtrip" `Quick
            test_roundtrip;
          Alcotest.test_case "all shards lost stays honest" `Quick
            test_all_lost_is_honest;
        ] );
      ( "partial-evidence",
        [
          Alcotest.test_case "partition+nodecrash, corrupt+deleted shards"
            `Quick test_partial_evidence_reproduces;
          Alcotest.test_case "losing any single node" `Quick test_lose_each_node;
          Alcotest.test_case "cloudstore partition" `Quick
            test_cloudstore_partition;
        ] );
      ( "manifest",
        [
          Alcotest.test_case "every-byte truncation fabricates no edge" `Quick
            test_manifest_truncation_sweep;
          Alcotest.test_case "bit-flip voids completeness" `Quick
            test_manifest_bitflip;
        ] );
      ( "part-files",
        [
          Alcotest.test_case "an unreadable shard is lost, not salvaged"
            `Quick test_unreadable_shard;
          Alcotest.test_case "a sibling recording's shards are not ours"
            `Quick test_sibling_recording;
        ] );
    ]
