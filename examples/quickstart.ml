(* Quickstart: write a tiny concurrent program in the DSL, watch it fail in
   production, then debug it under two determinism models and compare what
   each replay is worth.

   Run with: dune exec examples/quickstart.exe *)

open Mvm
open Mvm.Dsl

(* 1. A program: two workers increment a shared counter without a lock.
   The I/O specification says the final counter must equal 20. *)
let counter =
  program ~name:"counter"
    ~regions:[ scalar "c" (Value.int 0) ]
    ~inputs:[] ~main:"main"
    [
      func "main" []
        [
          spawn "worker" [];
          spawn "worker" [];
          recv "d1" "done";
          recv "d2" "done";
          output "total" (g "c");
        ];
      func "worker" []
        [
          for_ "k" (i 0) (i 10)
            [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ];
          send "done" (i 1);
        ];
    ]

let spec =
  Spec.make "counts-to-twenty" (fun r ->
      match Trace.outputs_on r.Interp.trace "total" with
      | [ Value.Vint 20 ] -> Ok ()
      | _ -> Error "lost-update")

(* The root cause, as a checkable predicate: two threads wrote the same
   counter value — the classic lost update. *)
let lost_update =
  Ddet_metrics.Root_cause.make ~id:"unlocked-increment"
    ~descr:"read-modify-write without a lock loses increments"
    (fun r ->
      let writes = Trace.writes_to_scalar r.Interp.trace "c" in
      List.exists
        (fun (_, tid1, v1) ->
          List.exists
            (fun (_, tid2, v2) -> tid1 <> tid2 && Value.equal v1 v2)
            writes)
        writes)

let catalog =
  {
    Ddet_metrics.Root_cause.app = "counter";
    failure_sig =
      (function Failure.Spec_violation "lost-update" -> true | _ -> false);
    causes = [ lost_update ];
  }

let () =
  (* 2. Find a production run that fails. *)
  let failing_seed =
    let rec scan seed =
      if seed > 1000 then failwith "no failing seed"
      else
        let r = Spec.apply spec (Interp.run counter (World.random ~seed)) in
        if r.Interp.failure <> None then seed else scan (seed + 1)
    in
    scan 1
  in
  let original =
    Spec.apply spec (Interp.run counter (World.random ~seed:failing_seed))
  in
  Printf.printf "production seed %d: total = %s (failure: %s)\n\n" failing_seed
    (match Trace.outputs_on original.Interp.trace "total" with
    | [ v ] -> Value.to_string v
    | _ -> "?")
    (match original.Interp.failure with
    | Some f -> Failure.to_string f
    | None -> "none");

  (* 3. Record the same run under two determinism models and replay. *)
  let experiment recorder replay =
    let world = World.random ~seed:failing_seed in
    let result, log = Ddet_record.Recorder.record recorder counter ~spec ~world in
    let outcome = replay log in
    let a =
      Ddet_metrics.Utility.assess ~catalog ~original:result ~log outcome
    in
    Printf.printf "%s\n" (Format.asprintf "%a" Ddet_metrics.Utility.pp a)
  in
  experiment
    (Ddet_record.Full_recorder.create ())
    (fun log -> Ddet_replay.Replayer.perfect counter ~spec log);
  experiment
    (Ddet_record.Output_recorder.create ())
    (fun log -> Ddet_replay.Replayer.output_det counter ~spec log);
  print_newline ();
  print_endline
    "perfect determinism pays full recording cost and reproduces the lost\n\
     update exactly (DF 1); output determinism records two integers but\n\
     must search for a schedule producing the same total — and any lossy\n\
     interleaving it finds still exhibits the same root cause here, because\n\
     this failure has exactly one possible cause.";
  print_endline
    "\nNext steps: examples/hypertable_debug.exe reproduces the paper's case\n\
     study, where root-cause ambiguity makes the model choice matter."
