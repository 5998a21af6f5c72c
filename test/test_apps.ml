(* Tests for the workload applications: failure reachability, specification
   correctness, root-cause predicate precision and the miniht protocol's
   conservation properties. *)

open Mvm
open Ddet_metrics
open Ddet_apps

let seeds n = List.init n (fun k -> k + 1)

let observed_ids (app : App.t) r =
  List.map (fun c -> c.Root_cause.id) (Root_cause.observed app.App.catalog r)

(* Every failing run must be explained by at least one catalog cause, and
   every passing run by none: catalogs are sound and complete on the
   failure signature they claim. *)
let check_catalog_total (app : App.t) n =
  List.iter
    (fun seed ->
      let r = App.production_run app ~seed in
      match r.Interp.failure with
      | Some f when app.App.catalog.Root_cause.failure_sig f ->
        if observed_ids app r = [] then
          Alcotest.fail
            (Printf.sprintf "%s seed %d: failure without any catalog cause"
               app.App.name seed)
      | Some _ | None ->
        if observed_ids app r <> [] then
          Alcotest.fail
            (Printf.sprintf "%s seed %d: cause attributed without failure"
               app.App.name seed))
    (seeds n)

(* ------------------------------------------------------------------ *)
(* adder *)

let test_adder_fails_on_2_2 () =
  match Workload.find_failing_seed (Adder.app ()) with
  | Some (_, r) -> (
    match
      ( Trace.inputs_on r.Interp.trace "a",
        Trace.inputs_on r.Interp.trace "b",
        Trace.outputs_on r.Interp.trace "sum" )
    with
    | [ (_, _, Value.Vint 2) ], [ (_, _, Value.Vint 2) ], [ Value.Vint 5 ] -> ()
    | _ -> Alcotest.fail "the only failure is (2,2) -> 5")
  | None -> Alcotest.fail "no failing seed for adder"

let test_adder_catalog_total () = check_catalog_total (Adder.app ()) 100

let test_adder_passes_mostly () =
  let rate = Workload.failure_rate ~n:100 (Adder.app ()) in
  Alcotest.(check bool) "failure is rare (only 2,2 fails)" true (rate < 0.1)

(* ------------------------------------------------------------------ *)
(* bufover *)

let test_bufover_crash_iff_big_input () =
  List.iter
    (fun seed ->
      let r = App.production_run (Bufover.app ()) ~seed in
      let n =
        match Trace.inputs_on r.Interp.trace "len" with
        | (_, _, Value.Vint n) :: _ -> n
        | _ -> -1
      in
      let crashed = match r.Interp.status with Interp.Crashed _ -> true | _ -> false in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: crash iff len > 8" seed)
        (n > 8) crashed)
    (seeds 50)

let test_bufover_catalog_total () = check_catalog_total (Bufover.app ()) 100

let test_bufover_single_cause () =
  Alcotest.(check int) "one root cause" 1
    (Root_cause.n_causes (Bufover.app ()).App.catalog)

(* ------------------------------------------------------------------ *)
(* msg_server *)

let test_msg_server_conservation () =
  (* delivered + network drops + race losses = sent; without drops or
     race, delivered = sent *)
  List.iter
    (fun seed ->
      let r = App.production_run (Msg_server.app ()) ~seed in
      let causes = observed_ids (Msg_server.app ()) r in
      match r.Interp.failure with
      | None ->
        let out chan =
          match Trace.outputs_on r.Interp.trace chan with
          | [ Value.Vint n ] -> n
          | _ -> -1
        in
        Alcotest.(check int)
          (Printf.sprintf "seed %d delivered=sent" seed)
          (out "sent") (out "delivered")
      | Some _ -> if causes = [] then Alcotest.fail "unexplained failure")
    (seeds 100)

let test_msg_server_race_reachable () =
  match Workload.find_failing_seed ~cause:"buffer-race" ~exclusive:true (Msg_server.app ()) with
  | Some _ -> ()
  | None -> Alcotest.fail "race-only failure unreachable"

let test_msg_server_congestion_reachable () =
  match Workload.find_failing_seed ~cause:"network-congestion" (Msg_server.app ()) with
  | Some (_, r) ->
    Alcotest.(check bool) "drop marker in inputs" true
      (List.exists
         (fun (_, _, v) -> Value.equal v (Value.str "DROP"))
         (Trace.inputs_on r.Interp.trace "net"))
  | None -> Alcotest.fail "congestion failure unreachable"

let test_msg_server_catalog_total () = check_catalog_total (Msg_server.app ()) 100

(* ------------------------------------------------------------------ *)
(* miniht *)

let miniht = Miniht.app ()

let test_miniht_conservation () =
  (* no failure => the dump returns every loaded row *)
  List.iter
    (fun seed ->
      let r = App.production_run miniht ~seed in
      match r.Interp.failure with
      | None -> (
        match
          ( Trace.outputs_on r.Interp.trace "loaded",
            Trace.outputs_on r.Interp.trace "dumped" )
        with
        | [ Value.Vint l ], [ Value.Vint d ] ->
          Alcotest.(check int) (Printf.sprintf "seed %d" seed) l d
        | _ -> Alcotest.fail "missing outputs")
      | Some _ -> ())
    (seeds 100)

let test_miniht_terminates () =
  List.iter
    (fun seed ->
      let r = App.production_run miniht ~seed in
      match r.Interp.status with
      | Interp.Done -> ()
      | st ->
        Alcotest.fail
          (Printf.sprintf "seed %d: %s" seed (Interp.status_to_string st)))
    (seeds 100)

let test_miniht_all_three_causes_reachable () =
  List.iter
    (fun cause ->
      match Workload.find_failing_seed ~cause miniht with
      | Some _ -> ()
      | None -> Alcotest.fail ("unreachable cause: " ^ cause))
    [ Miniht.rc_race; Miniht.rc_crash; Miniht.rc_oom ]

let test_miniht_race_only_seed_exists () =
  match Workload.find_failing_seed ~cause:Miniht.rc_race ~exclusive:true miniht with
  | Some (_, r) ->
    Alcotest.(check (list string)) "exactly the race" [ Miniht.rc_race ]
      (observed_ids miniht r)
  | None -> Alcotest.fail "no race-only seed"

let test_miniht_race_is_hard_to_reproduce () =
  (* the paper's premise: the bug is non-deterministic and rare *)
  let race_runs =
    List.filter
      (fun seed ->
        List.mem Miniht.rc_race (observed_ids miniht (App.production_run miniht ~seed)))
      (seeds 100)
  in
  let rate = float_of_int (List.length race_runs) /. 100. in
  Alcotest.(check bool) "race fires in 1-35% of runs" true
    (rate > 0.01 && rate < 0.35)

let test_miniht_catalog_total () = check_catalog_total miniht 100

let test_miniht_race_predicate_precision () =
  (* on a crash-fault-only failure, the race predicate must not hold *)
  match
    Workload.find_failing_seed ~cause:Miniht.rc_crash ~exclusive:true miniht
  with
  | Some (_, r) ->
    Alcotest.(check (list string)) "crash only" [ Miniht.rc_crash ]
      (observed_ids miniht r)
  | None -> Alcotest.fail "no crash-only seed found"

let test_miniht_migration_happens () =
  (* the threshold is crossed in a meaningful fraction of runs — and only a
     fraction: the master races the shutdown sentinel, which is part of why
     the bug is hard to reproduce *)
  let migrated =
    List.filter
      (fun seed ->
        let r = App.production_run miniht ~seed in
        Trace.writes_to_scalar r.Interp.trace "owner_0" <> [])
      (seeds 50)
  in
  let n = List.length migrated in
  Alcotest.(check bool) "migration rate plausible" true (n > 5 && n < 45)

(* ------------------------------------------------------------------ *)
(* cloudstore *)

let cloudstore = Cloudstore.app ()

let test_cloudstore_terminates () =
  List.iter
    (fun seed ->
      let r = App.production_run cloudstore ~seed in
      match r.Interp.status with
      | Interp.Done -> ()
      | st ->
        Alcotest.fail
          (Printf.sprintf "seed %d: %s" seed (Interp.status_to_string st)))
    (seeds 100)

let test_cloudstore_conservation () =
  (* no failure => every verification read hit *)
  List.iter
    (fun seed ->
      let r = App.production_run cloudstore ~seed in
      match r.Interp.failure with
      | None -> (
        match Trace.outputs_on r.Interp.trace "stales" with
        | [ Value.Vint 0 ] -> ()
        | _ -> Alcotest.fail (Printf.sprintf "seed %d: stales without failure" seed))
      | Some _ -> ())
    (seeds 100)

let test_cloudstore_catalog_total () = check_catalog_total cloudstore 150

let test_cloudstore_all_causes_reachable () =
  List.iter
    (fun cause ->
      match Workload.find_failing_seed ~cause cloudstore with
      | Some _ -> ()
      | None -> Alcotest.fail ("unreachable cause: " ^ cause))
    [ Cloudstore.rc_race; Cloudstore.rc_drop; Cloudstore.rc_disk ]

let test_cloudstore_race_only_seed () =
  match
    Workload.find_failing_seed ~cause:Cloudstore.rc_race ~exclusive:true
      cloudstore
  with
  | Some (_, r) ->
    Alcotest.(check (list string)) "exactly the race" [ Cloudstore.rc_race ]
      (observed_ids cloudstore r)
  | None -> Alcotest.fail "no race-only seed"

let test_cloudstore_race_transient_signature () =
  (* the race predicate requires the block to be present at the end: the
     replication eventually arrived *)
  match
    Workload.find_failing_seed ~cause:Cloudstore.rc_race ~exclusive:true
      cloudstore
  with
  | None -> Alcotest.fail "no race seed"
  | Some (_, r) ->
    let stale_reads =
      Trace.filter
        (fun (e : Event.t) ->
          match e.Event.kind with
          | Event.Read { region = "disk_1"; value; _ } ->
            Value.equal value.Value.v (Value.int 0)
          | _ -> false)
        r.Interp.trace
    in
    Alcotest.(check bool) "a stale read exists" true (stale_reads <> [])

let test_cloudstore_blocks_all_stored_on_primary () =
  (* the primary always stores every acknowledged block *)
  let r = App.production_run cloudstore ~seed:1 in
  let total = 2 * 4 in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "disk_0[%d] present" b)
        true
        (Value.equal
           (Trace.array_cell_at r.Interp.trace "disk_0" ~index:b
              ~init:(Value.int 0) ~step:max_int)
           (Value.int 1)))
    (List.init total (fun b -> b))

(* ------------------------------------------------------------------ *)
(* plane ground truth sanity *)

let test_control_plane_names_exist () =
  List.iter
    (fun (app : App.t) ->
      List.iter
        (fun fname ->
          if Ast.find_func app.App.labeled.Label.prog fname = None then
            Alcotest.fail
              (Printf.sprintf "%s: ground-truth function %s does not exist"
                 app.App.name fname))
        app.App.control_plane)
    [ Adder.app (); Bufover.app (); Msg_server.app (); miniht; cloudstore ]

let () =
  Alcotest.run "apps"
    [
      ( "adder",
        [
          Alcotest.test_case "fails on (2,2)" `Quick test_adder_fails_on_2_2;
          Alcotest.test_case "catalog total" `Quick test_adder_catalog_total;
          Alcotest.test_case "failure rare" `Quick test_adder_passes_mostly;
        ] );
      ( "bufover",
        [
          Alcotest.test_case "crash iff big input" `Quick test_bufover_crash_iff_big_input;
          Alcotest.test_case "catalog total" `Quick test_bufover_catalog_total;
          Alcotest.test_case "single cause" `Quick test_bufover_single_cause;
        ] );
      ( "msg_server",
        [
          Alcotest.test_case "conservation" `Quick test_msg_server_conservation;
          Alcotest.test_case "race reachable" `Quick test_msg_server_race_reachable;
          Alcotest.test_case "congestion reachable" `Quick test_msg_server_congestion_reachable;
          Alcotest.test_case "catalog total" `Quick test_msg_server_catalog_total;
        ] );
      ( "miniht",
        [
          Alcotest.test_case "conservation" `Quick test_miniht_conservation;
          Alcotest.test_case "terminates" `Quick test_miniht_terminates;
          Alcotest.test_case "three causes reachable" `Quick test_miniht_all_three_causes_reachable;
          Alcotest.test_case "race-only seed" `Quick test_miniht_race_only_seed_exists;
          Alcotest.test_case "race is rare" `Quick test_miniht_race_is_hard_to_reproduce;
          Alcotest.test_case "catalog total" `Quick test_miniht_catalog_total;
          Alcotest.test_case "predicate precision" `Quick test_miniht_race_predicate_precision;
          Alcotest.test_case "migration happens" `Quick test_miniht_migration_happens;
        ] );
      ( "cloudstore",
        [
          Alcotest.test_case "terminates" `Quick test_cloudstore_terminates;
          Alcotest.test_case "conservation" `Quick test_cloudstore_conservation;
          Alcotest.test_case "catalog total" `Quick test_cloudstore_catalog_total;
          Alcotest.test_case "three causes reachable" `Quick test_cloudstore_all_causes_reachable;
          Alcotest.test_case "race-only seed" `Quick test_cloudstore_race_only_seed;
          Alcotest.test_case "transient signature" `Quick test_cloudstore_race_transient_signature;
          Alcotest.test_case "primary stores all" `Quick test_cloudstore_blocks_all_stored_on_primary;
        ] );
      ( "ground-truth",
        [ Alcotest.test_case "names exist" `Quick test_control_plane_names_exist ] );
    ]
