(* Integration tests for the ddet core library: the model registry, the
   session pipeline across every determinism model, and the shape of the
   headline experiment (Fig. 2). *)

open Ddet
open Ddet_apps
open Ddet_metrics

let all_models =
  [
    Model.Perfect; Model.Value; Model.Sync; Model.Output; Model.Failure_det;
    Model.Rcse Model.Code_based; Model.Rcse Model.Data_based;
    Model.Rcse Model.Trigger_based; Model.Rcse Model.Combined;
  ]

(* ------------------------------------------------------------------ *)
(* model registry *)

let test_model_name_roundtrip () =
  List.iter
    (fun m ->
      match Model.of_string (Model.name m) with
      | Ok m' ->
        Alcotest.(check string) "roundtrip" (Model.name m) (Model.name m')
      | Error e -> Alcotest.fail e)
    all_models

let test_model_unknown_rejected () =
  match Model.of_string "quantum" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown model accepted"

let test_fig1_sequence_order () =
  Alcotest.(check (list string)) "chronological relaxation order"
    [ "perfect"; "value"; "sync"; "output"; "failure"; "rcse" ]
    (List.map Model.name Model.fig1_sequence)

let test_references () =
  Alcotest.(check string) "value is iDNA" "iDNA" (Model.reference Model.Value);
  Alcotest.(check string) "failure is ESD" "ESD" (Model.reference Model.Failure_det)

(* ------------------------------------------------------------------ *)
(* session pipeline *)

let miniht_seed =
  lazy
    (match
       Workload.find_failing_seed ~cause:Miniht.rc_race ~exclusive:true
         (Miniht.app ())
     with
    | Some (seed, _) -> seed
    | None -> Alcotest.fail "no race seed")

let test_prepare_trains_what_is_needed () =
  let app = Miniht.app () in
  let code = Session.prepare (Model.Rcse Model.Code_based) app in
  Alcotest.(check bool) "code-based has a plane map" true
    (code.Session.plane_map <> None);
  Alcotest.(check bool) "code-based has no invariants" true
    (code.Session.invariants = None);
  let data = Session.prepare (Model.Rcse Model.Data_based) app in
  Alcotest.(check bool) "data-based has invariants" true
    (data.Session.invariants <> None);
  let plain = Session.prepare Model.Perfect app in
  Alcotest.(check bool) "perfect trains nothing" true
    (plain.Session.plane_map = None && plain.Session.invariants = None)

let test_classification_matches_ground_truth () =
  let app = Miniht.app () in
  let prepared = Session.prepare (Model.Rcse Model.Code_based) app in
  match prepared.Session.plane_map with
  | None -> Alcotest.fail "no plane map"
  | Some map ->
    List.iter
      (fun f ->
        let fname = f.Mvm.Ast.fname in
        let expected =
          if List.mem fname app.App.control_plane then Ddet_analysis.Plane.Control
          else Ddet_analysis.Plane.Data
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s classified correctly" fname)
          true
          (Ddet_analysis.Plane.equal (Ddet_analysis.Plane.plane_of map fname) expected))
      app.App.labeled.Mvm.Label.prog.Mvm.Ast.funcs

let test_record_is_reproducible () =
  let app = Miniht.app () in
  let prepared = Session.prepare Model.Perfect app in
  let r1, log1 = Session.record prepared ~seed:42 in
  let r2, log2 = Session.record prepared ~seed:42 in
  Alcotest.(check int) "same steps" r1.Mvm.Interp.steps r2.Mvm.Interp.steps;
  Alcotest.(check bool) "same schedule" true
    (Ddet_record.Log.sched_points log1 = Ddet_record.Log.sched_points log2)

let test_every_model_runs_end_to_end () =
  let app = Miniht.app () in
  let seed = Lazy.force miniht_seed in
  List.iter
    (fun model ->
      let a = Session.experiment model app ~seed in
      Alcotest.(check bool)
        (Model.name model ^ " overhead sane")
        true
        (a.Utility.overhead >= 1.0 && a.Utility.overhead < 10.0);
      Alcotest.(check bool)
        (Model.name model ^ " df within [0,1]")
        true
        (a.Utility.df >= 0.0 && a.Utility.df <= 1.0))
    all_models

let test_fig2_shape () =
  (* the headline reproduction: value and rcse-code reach DF 1, failure
     determinism lands at 1/3; overheads order value > rcse > failure *)
  let app = Miniht.app () in
  let seed = Lazy.force miniht_seed in
  let assess model = Session.experiment_ensemble ~replays:3 model app ~seed in
  let value = assess Model.Value in
  let failure = assess Model.Failure_det in
  let rcse = assess (Model.Rcse Model.Code_based) in
  Alcotest.(check (float 1e-9)) "value DF 1" 1.0 value.Utility.df;
  Alcotest.(check (float 1e-9)) "rcse DF 1" 1.0 rcse.Utility.df;
  Alcotest.(check (float 0.15)) "failure DF ~ 1/3" (1. /. 3.) failure.Utility.df;
  Alcotest.(check bool) "value costs most" true
    (value.Utility.overhead > rcse.Utility.overhead);
  Alcotest.(check bool) "rcse costs more than nothing" true
    (rcse.Utility.overhead > failure.Utility.overhead);
  Alcotest.(check bool) "failure records ~nothing" true
    (failure.Utility.overhead < 1.01)

let test_adder_output_loses_failure () =
  let app = Adder.app () in
  match Workload.find_failing_seed app with
  | None -> Alcotest.fail "no adder seed"
  | Some (seed, _) ->
    let a = Session.experiment Model.Output app ~seed in
    Alcotest.(check (float 1e-9)) "DF 0: replay is a correct sum" 0.0
      a.Utility.df

let test_perfect_always_full_fidelity () =
  List.iter
    (fun (app : App.t) ->
      match Workload.find_failing_seed app with
      | None -> Alcotest.fail ("no seed for " ^ app.App.name)
      | Some (seed, _) ->
        let a = Session.experiment Model.Perfect app ~seed in
        Alcotest.(check (float 1e-9)) (app.App.name ^ " DF") 1.0 a.Utility.df;
        Alcotest.(check (float 1e-9)) (app.App.name ^ " DE") 1.0 a.Utility.de)
    [
      Adder.app (); Bufover.app (); Msg_server.app (); Miniht.app ();
      Cloudstore.app ();
    ]

let test_ensemble_is_deterministic () =
  let app = Miniht.app () in
  let seed = Lazy.force miniht_seed in
  let a1 = Session.experiment_ensemble ~replays:3 Model.Failure_det app ~seed in
  let a2 = Session.experiment_ensemble ~replays:3 Model.Failure_det app ~seed in
  Alcotest.(check (float 1e-9)) "df stable" a1.Utility.df a2.Utility.df;
  Alcotest.(check (float 1e-9)) "de stable" a1.Utility.de a2.Utility.de

let test_training_runs_pass () =
  let app = Miniht.app () in
  let runs = Session.training_runs app in
  Alcotest.(check int) "five runs" 5 (List.length runs);
  Alcotest.(check bool) "all passing" true
    (List.for_all (fun (r : Mvm.Interp.result) -> r.Mvm.Interp.failure = None) runs)

(* ------------------------------------------------------------------ *)
(* open questions: all-root-causes exploration, forensic/FT frontier *)

let test_explore_covers_catalog () =
  let app = Miniht.app () in
  let seed = Lazy.force miniht_seed in
  let _, log =
    Ddet_record.Recorder.record
      (Ddet_record.Failure_recorder.create ())
      app.App.labeled ~spec:app.App.spec
      ~world:(Mvm.World.random ~seed)
  in
  let o = Explore.all_root_causes app ~log in
  Alcotest.(check bool) "all three causes witnessed" true o.Explore.complete;
  Alcotest.(check int) "three witnesses" 3 (List.length o.Explore.witnesses);
  List.iter
    (fun (w : Explore.witness) ->
      Alcotest.(check bool)
        (w.Explore.cause_id ^ " witness exhibits its cause")
        true
        (List.exists
           (fun c -> c.Root_cause.id = w.Explore.cause_id)
           (Root_cause.observed app.App.catalog w.Explore.result)))
    o.Explore.witnesses

let test_explore_respects_budget () =
  let app = Miniht.app () in
  let seed = Lazy.force miniht_seed in
  let _, log =
    Ddet_record.Recorder.record
      (Ddet_record.Failure_recorder.create ())
      app.App.labeled ~spec:app.App.spec
      ~world:(Mvm.World.random ~seed)
  in
  let budget =
    { Ddet_replay.Search.max_attempts = 2; max_steps_per_attempt = 50_000; base_seed = 1; deadline_s = None }
  in
  let o = Explore.all_root_causes ~budget app ~log in
  Alcotest.(check bool) "attempts capped" true (o.Explore.attempts <= 2)

let test_forensic_identity () =
  let app = Adder.app () in
  let r = App.production_run app ~seed:3 in
  Alcotest.(check (float 1e-9)) "run matches itself" 1.0
    (Frontier.forensic_fidelity ~original:r ~replay:r)

let test_forensic_detects_forged_inputs () =
  let app = Adder.app () in
  (* two runs with the same output 5 but different inputs *)
  let find a b =
    let rec scan seed =
      if seed > 2000 then Alcotest.fail "seeds not found"
      else
        let r = App.production_run app ~seed in
        match
          ( Mvm.Trace.inputs_on r.Mvm.Interp.trace "a",
            Mvm.Trace.inputs_on r.Mvm.Interp.trace "b" )
        with
        | [ (_, _, Mvm.Value.Vint x) ], [ (_, _, Mvm.Value.Vint y) ]
          when x = a && y = b ->
          r
        | _ -> scan (seed + 1)
    in
    scan 1
  in
  let r22 = find 2 2 and r14 = find 1 4 in
  Alcotest.(check bool) "forged inputs detected" true
    (Frontier.forensic_fidelity ~original:r22 ~replay:r14 < 1.0)

let test_state_divergence_zero_for_identical () =
  let app = Miniht.app () in
  let r = App.production_run app ~seed:7 in
  Alcotest.(check (float 1e-9)) "identical runs diverge nowhere" 0.0
    (Frontier.state_divergence
       ~regions:app.App.labeled.Mvm.Label.prog.Mvm.Ast.regions ~original:r
       ~replay:r)

let test_state_divergence_detects_difference () =
  let app = Miniht.app () in
  let seed = Lazy.force miniht_seed in
  let failing = App.production_run app ~seed in
  (* a passing run necessarily ends in a different state *)
  let passing =
    let rec scan s =
      let r = App.production_run app ~seed:s in
      if r.Mvm.Interp.failure = None then r else scan (s + 1)
    in
    scan 1000
  in
  Alcotest.(check bool) "different runs diverge" true
    (Frontier.state_divergence
       ~regions:app.App.labeled.Mvm.Label.prog.Mvm.Ast.regions
       ~original:failing ~replay:passing
    > 0.0)

(* ------------------------------------------------------------------ *)
(* experiment drivers (small configurations to stay fast) *)

let test_fig2_rows_complete () =
  let rows = Experiment.fig2 ~replays:1 () in
  Alcotest.(check int) "three models" 3 (List.length rows);
  List.iter
    (fun (r : Experiment.row) ->
      Alcotest.(check string) "all on miniht" "miniht" r.Experiment.app)
    rows

let test_fig2_rows_name_models () =
  Alcotest.(check (list string)) "value, failure, rcse-code"
    [ "value"; "failure"; "rcse-code" ]
    (List.map
       (fun (r : Experiment.row) -> r.Experiment.assessment.Utility.model)
       (Experiment.fig2 ~replays:1 ()))

(* §2: output determinism replays the adder's recorded output 5 from
   inputs that sum to it, so the replayed execution does not fail *)
let test_sec2_adder_replays_correct_sum () =
  let s = Experiment.sec2_adder () in
  let sum (r : Mvm.Interp.result) = Mvm.Trace.outputs_on r.Mvm.Interp.trace "sum" in
  let inputs (r : Mvm.Interp.result) =
    List.map
      (fun chan ->
        match Mvm.Trace.inputs_on r.Mvm.Interp.trace chan with
        | [ (_, _, Mvm.Value.Vint n) ] -> n
        | _ -> Alcotest.fail ("no single input on " ^ chan))
      [ "a"; "b" ]
  in
  Alcotest.(check bool) "the original fails" true
    (s.Experiment.original.Mvm.Interp.failure <> None);
  match s.Experiment.replay with
  | None -> Alcotest.fail "output determinism found no execution"
  | Some replay ->
    Alcotest.(check bool) "the replay does not fail" true
      (replay.Mvm.Interp.failure = None);
    Alcotest.(check bool) "same recorded output" true
      (sum replay = sum s.Experiment.original);
    Alcotest.(check bool) "the replayed inputs sum to it" true
      (sum replay = [ Mvm.Value.Vint (List.fold_left ( + ) 0 (inputs replay)) ]);
    Alcotest.(check (float 1e-9)) "DF 0" 0.0
      s.Experiment.row.Experiment.assessment.Utility.df

(* §2's drop: the original run's sent minus delivered outputs, and ten
   syntheses tallied most-blamed first *)
let test_sec2_drop_counts_what_it_measures () =
  let d = Experiment.sec2_drop () in
  let original =
    App.production_run (Msg_server.app ()) ~seed:d.Experiment.drop_seed
  in
  let output chan =
    match Mvm.Trace.outputs_on original.Mvm.Interp.trace chan with
    | [ Mvm.Value.Vint n ] -> n
    | _ -> Alcotest.fail ("no single " ^ chan ^ " output")
  in
  Alcotest.(check int) "dropped = sent - delivered"
    (output "sent" - output "delivered") d.Experiment.dropped;
  Alcotest.(check bool) "the original dropped messages" true
    (d.Experiment.dropped > 0);
  let counts = List.map snd d.Experiment.tally in
  Alcotest.(check int) "ten syntheses" 10 (List.fold_left ( + ) 0 counts);
  Alcotest.(check (list int)) "most-blamed first"
    (List.sort (fun a b -> compare b a) counts) counts

let () =
  Alcotest.run "core"
    [
      ( "model",
        [
          Alcotest.test_case "name roundtrip" `Quick test_model_name_roundtrip;
          Alcotest.test_case "unknown rejected" `Quick test_model_unknown_rejected;
          Alcotest.test_case "fig1 sequence" `Quick test_fig1_sequence_order;
          Alcotest.test_case "references" `Quick test_references;
        ] );
      ( "session",
        [
          Alcotest.test_case "prepare trains lazily" `Quick test_prepare_trains_what_is_needed;
          Alcotest.test_case "classification vs truth" `Quick test_classification_matches_ground_truth;
          Alcotest.test_case "record reproducible" `Quick test_record_is_reproducible;
          Alcotest.test_case "all models end-to-end" `Slow test_every_model_runs_end_to_end;
          Alcotest.test_case "training runs pass" `Quick test_training_runs_pass;
          Alcotest.test_case "ensemble deterministic" `Quick test_ensemble_is_deterministic;
        ] );
      ( "paper-shape",
        [
          Alcotest.test_case "fig2 shape" `Slow test_fig2_shape;
          Alcotest.test_case "adder output DF 0" `Quick test_adder_output_loses_failure;
          Alcotest.test_case "perfect always DF 1" `Slow test_perfect_always_full_fidelity;
        ] );
      ( "open-questions",
        [
          Alcotest.test_case "explore covers catalog" `Slow test_explore_covers_catalog;
          Alcotest.test_case "explore budget" `Quick test_explore_respects_budget;
          Alcotest.test_case "forensic identity" `Quick test_forensic_identity;
          Alcotest.test_case "forensic forged inputs" `Quick test_forensic_detects_forged_inputs;
          Alcotest.test_case "divergence zero" `Quick test_state_divergence_zero_for_identical;
          Alcotest.test_case "divergence detects" `Quick test_state_divergence_detects_difference;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "fig2 rows" `Quick test_fig2_rows_complete;
          Alcotest.test_case "fig2 rows name models" `Quick test_fig2_rows_name_models;
          Alcotest.test_case "sec2 adder correct sum" `Quick test_sec2_adder_replays_correct_sum;
          Alcotest.test_case "sec2 drop counts" `Quick test_sec2_drop_counts_what_it_measures;
        ] );
    ]
