(* Unit tests for ddet_metrics: root-cause catalogs, DF/DE/DU and report
   rendering. *)

open Mvm
open Mvm.Dsl
open Ddet_record
open Ddet_metrics

(* Two-cause scenario: a program that fails with tag "bad" either because
   input x = 1 (cause A) or input y = 1 (cause B). *)
let two_cause_prog =
  program ~name:"two" ~regions:[]
    ~inputs:[ ("x", [ Value.int 0; Value.int 1 ]); ("y", [ Value.int 0; Value.int 1 ]) ]
    ~main:"main"
    [
      func "main" []
        [
          input "x" "x";
          input "y" "y";
          if_
            ((v "x" =: i 1) ||: (v "y" =: i 1))
            [ output "out" (i 666) ]
            [ output "out" (i 0) ];
        ];
    ]

let spec =
  Spec.make "no-666" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint 666 ] -> Error "bad"
      | _ -> Ok ())

let input_is chan n (r : Interp.result) =
  match Trace.inputs_on r.Interp.trace chan with
  | (_, _, Value.Vint v) :: _ -> v = n
  | _ -> false

let cause_a = Root_cause.make ~id:"cause-a" ~descr:"x was 1" (input_is "x" 1)
let cause_b = Root_cause.make ~id:"cause-b" ~descr:"y was 1" (input_is "y" 1)

let catalog =
  {
    Root_cause.app = "two";
    failure_sig = (function Mvm.Failure.Spec_violation "bad" -> true | _ -> false);
    causes = [ cause_a; cause_b ];
  }

(* a world forcing specific inputs *)
let forced_world x y =
  let base = World.round_robin () in
  {
    base with
    World.pick_input =
      (fun ~step:_ ~tid:_ ~chan ~domain:_ ->
        Value.int (if String.equal chan "x" then x else y));
  }

let run_with x y = Spec.apply spec (Interp.run two_cause_prog (forced_world x y))

(* ------------------------------------------------------------------ *)
(* root causes *)

let test_observed_single () =
  let r = run_with 1 0 in
  match Root_cause.observed catalog r with
  | [ c ] -> Alcotest.(check string) "cause a" "cause-a" c.Root_cause.id
  | _ -> Alcotest.fail "expected exactly cause-a"

let test_observed_both () =
  let r = run_with 1 1 in
  Alcotest.(check int) "both causes" 2 (List.length (Root_cause.observed catalog r))

let test_observed_none_when_passing () =
  let r = run_with 0 0 in
  Alcotest.(check int) "no causes on pass" 0
    (List.length (Root_cause.observed catalog r))

let test_primary_order () =
  let r = run_with 1 1 in
  match Root_cause.primary catalog r with
  | Some c -> Alcotest.(check string) "catalog order wins" "cause-a" c.Root_cause.id
  | None -> Alcotest.fail "expected a primary cause"

let test_failure_sig_gates () =
  (* a different failure never matches the catalog *)
  let p =
    program ~name:"boom" ~regions:[] ~inputs:[] ~main:"main"
      [ func "main" [] [ fail "other" ] ]
  in
  let r = Interp.run p (World.round_robin ()) in
  Alcotest.(check int) "crash not in catalog" 0
    (List.length (Root_cause.observed catalog r))

let test_n_causes () =
  Alcotest.(check int) "catalog size" 2 (Root_cause.n_causes catalog)

(* ------------------------------------------------------------------ *)
(* fidelity *)

let test_df_same_cause () =
  let original = run_with 1 0 in
  let replay = run_with 1 0 in
  Alcotest.(check (float 1e-9)) "DF 1" 1.0
    (Fidelity.df ~catalog ~original ~replay:(Some replay))

let test_df_different_cause () =
  let original = run_with 1 0 in
  let replay = run_with 0 1 in
  Alcotest.(check (float 1e-9)) "DF 1/2" 0.5
    (Fidelity.df ~catalog ~original ~replay:(Some replay))

let test_df_failure_not_reproduced () =
  let original = run_with 1 0 in
  let replay = run_with 0 0 in
  Alcotest.(check (float 1e-9)) "DF 0" 0.0
    (Fidelity.df ~catalog ~original ~replay:(Some replay))

let test_df_no_replay () =
  let original = run_with 1 0 in
  Alcotest.(check (float 1e-9)) "DF 0 when inference fails" 0.0
    (Fidelity.df ~catalog ~original ~replay:None)

let test_explain_names_causes () =
  let original = run_with 1 0 in
  let replay = run_with 0 1 in
  let df, oc, rc = Fidelity.explain ~catalog ~original ~replay:(Some replay) in
  Alcotest.(check (float 1e-9)) "df" 0.5 df;
  Alcotest.(check (option string)) "original cause" (Some "cause-a") oc;
  Alcotest.(check (option string)) "replay cause" (Some "cause-b") rc

(* ------------------------------------------------------------------ *)
(* efficiency and utility *)

let outcome ?result ~attempts ~total_steps () =
  { Ddet_replay.Replayer.model = "test"; result; partial = None; attempts;
    total_steps; deadline_hit = false; incidents = [] }

let test_de_ratio () =
  let original = run_with 1 0 in
  let o = outcome ~result:original ~attempts:1 ~total_steps:(2 * original.Interp.steps) () in
  Alcotest.(check (float 1e-9)) "DE = orig/total" 0.5
    (Efficiency.de ~original ~outcome:o)

let test_de_zero_on_miss () =
  let original = run_with 1 0 in
  let o = outcome ~attempts:10 ~total_steps:1_000 () in
  Alcotest.(check (float 1e-9)) "DE 0 when not reproduced" 0.0
    (Efficiency.de ~original ~outcome:o)

let test_de_exceeds_one_for_short_synthesis () =
  let original = run_with 1 0 in
  let o = outcome ~result:original ~attempts:1
      ~total_steps:(original.Interp.steps / 2) ()
  in
  Alcotest.(check bool) "synthesis can beat the original" true
    (Efficiency.de ~original ~outcome:o > 1.0)

let test_du_product () =
  let original = run_with 1 0 in
  let replay = run_with 0 1 in
  let log = Log.make ~recorder:"t" ~entries:[] ~base_steps:original.Interp.steps ~failure:original.Interp.failure () in
  let o = outcome ~result:replay ~attempts:2 ~total_steps:(2 * original.Interp.steps) () in
  let a = Utility.assess ~catalog ~original ~log o in
  Alcotest.(check (float 1e-9)) "du = df * de" (a.Utility.df *. a.Utility.de)
    a.Utility.du;
  Alcotest.(check (float 1e-9)) "df is 1/2" 0.5 a.Utility.df;
  Alcotest.(check (float 1e-9)) "overhead 1.0 for empty log" 1.0 a.Utility.overhead

(* ------------------------------------------------------------------ *)
(* report *)

let test_table_alignment () =
  let t = Report.table ~headers:[ "a"; "bb" ] [ [ "xxx"; "y" ]; [ "z"; "wwww" ] ] in
  let lines = String.split_on_char '\n' t in
  Alcotest.(check int) "header + separator + 2 rows" 4 (List.length lines);
  match lines with
  | first :: _ ->
    Alcotest.(check bool) "columns padded" true
      (String.length first >= String.length "a    bb")
  | [] -> Alcotest.fail "empty table"

let test_table_ragged_rejected () =
  Alcotest.(check bool) "ragged row raises" true
    (try
       ignore (Report.table ~headers:[ "a"; "b" ] [ [ "only-one" ] ]);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "metrics"
    [
      ( "root-cause",
        [
          Alcotest.test_case "observed single" `Quick test_observed_single;
          Alcotest.test_case "observed both" `Quick test_observed_both;
          Alcotest.test_case "none when passing" `Quick test_observed_none_when_passing;
          Alcotest.test_case "primary order" `Quick test_primary_order;
          Alcotest.test_case "failure sig gates" `Quick test_failure_sig_gates;
          Alcotest.test_case "n causes" `Quick test_n_causes;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "same cause" `Quick test_df_same_cause;
          Alcotest.test_case "different cause" `Quick test_df_different_cause;
          Alcotest.test_case "failure lost" `Quick test_df_failure_not_reproduced;
          Alcotest.test_case "no replay" `Quick test_df_no_replay;
          Alcotest.test_case "explain" `Quick test_explain_names_causes;
        ] );
      ( "efficiency-utility",
        [
          Alcotest.test_case "de ratio" `Quick test_de_ratio;
          Alcotest.test_case "de zero on miss" `Quick test_de_zero_on_miss;
          Alcotest.test_case "de above one" `Quick test_de_exceeds_one_for_short_synthesis;
          Alcotest.test_case "du product" `Quick test_du_product;
        ] );
      ( "report",
        [
          Alcotest.test_case "alignment" `Quick test_table_alignment;
          Alcotest.test_case "ragged rejected" `Quick test_table_ragged_rejected;
        ] );
    ]
