open Mvm
open Mvm.Dsl
open Ddet_metrics

let domain = List.init 10 Value.int

let program () =
  program ~name:"adder" ~regions:[]
    ~inputs:[ ("a", domain); ("b", domain) ]
    ~main:"main"
    [
      func "main" []
        [
          input "a" "a";
          input "b" "b";
          (* the defect: for (2, 2) an indexing bug yields 5 instead of 4 *)
          if_
            ((v "a" =: i 2) &&: (v "b" =: i 2))
            [ assign "out" (i 5) ]
            [ assign "out" (v "a" +: v "b") ];
          output "sum" (v "out");
        ];
    ]

let first_input trace chan =
  match Trace.inputs_on trace chan with
  | (_, _, v) :: _ -> Some v
  | [] -> None

let spec =
  Spec.make "sum-correct" (fun r ->
      match
        ( first_input r.Interp.trace "a",
          first_input r.Interp.trace "b",
          Interp.outputs_on r "sum" )
      with
      | Some (Value.Vint a), Some (Value.Vint b), [ Value.Vint s ] ->
        if s = a + b then Ok () else Error "wrong-sum"
      | _ -> Error "malformed-io")

let bad_index =
  Root_cause.make ~id:"bad-index"
    ~descr:"indexing bug corrupts the sum when both inputs are 2"
    (fun r ->
      match first_input r.Interp.trace "a", first_input r.Interp.trace "b" with
      | Some (Value.Vint 2), Some (Value.Vint 2) -> true
      | _ -> false)

let catalog =
  {
    Root_cause.app = "adder";
    failure_sig =
      (function Mvm.Failure.Spec_violation "wrong-sum" -> true | _ -> false);
    causes = [ bad_index ];
  }

let app () =
  {
    App.name = "adder";
    descr = "sum of two inputs, corrupted for (2,2) — the paper's Sec. 2 example";
    labeled = program ();
    spec;
    catalog;
    control_plane = [];
    nodes = None;
  }
