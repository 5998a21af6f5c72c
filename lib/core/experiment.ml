open Mvm
open Ddet_apps
open Ddet_metrics

type row = { app : string; seed : int; assessment : Utility.assessment }
type replayed = { row : row; original : Interp.result; replay : Interp.result option }

type drop = {
  drop_seed : int;
  dropped : int;
  tally : (string list option * int) list;
}

type detection = { workload : string; detector : string; races : int; work : int }

let find_seed ((app : App.t), cause) =
  match Workload.find_failing_seed ?cause ~exclusive:(cause <> None) app with
  | Some found -> found
  | None ->
    invalid_arg
      (Printf.sprintf "no failing production seed found for %s" app.App.name)

let msg_server_race () = (Msg_server.app (), Some "buffer-race")
let miniht_race () = (Miniht.app (), Some Miniht.rc_race)

let ensemble ?config ?replays model (app : App.t) seed =
  { app = app.App.name; seed;
    assessment = Session.experiment_ensemble ?config ?replays model app ~seed }

let run_matrix ?replays apps models =
  List.concat_map
    (fun ((app, _) as subject) ->
      let seed, _ = find_seed subject in
      List.map (fun model -> ensemble ?replays model app seed) models)
    apps

let fig1 () =
  run_matrix
    [
      (Adder.app (), None);
      (Bufover.app (), None);
      msg_server_race ();
      miniht_race ();
      (Cloudstore.app (), Some Cloudstore.rc_race);
    ]
    Model.fig1_sequence

let fig2 ?replays () =
  run_matrix ?replays [ miniht_race () ]
    [ Model.Value; Model.Failure_det; Model.Rcse Model.Code_based ]

let sec2_adder () =
  let app = Adder.app () in
  let seed, _ = find_seed (app, None) in
  let prepared = Session.prepare Model.Output app in
  let original, log = Session.record prepared ~seed in
  let outcome = Session.replay prepared log in
  {
    row =
      { app = app.App.name; seed;
        assessment = Session.assess prepared ~original ~log outcome };
    original;
    replay = outcome.Ddet_replay.Replayer.result;
  }

let sec2_drop () =
  let ((app, _) as subject) = msg_server_race () in
  let seed, original = find_seed subject in
  let prepared = Session.prepare Model.Failure_det app in
  let _, log = Session.record prepared ~seed in
  let base = prepared.Session.config.Config.budget in
  let causes =
    List.init 10 (fun k ->
        let base_seed = base.Ddet_replay.Search.base_seed + (7919 * k) in
        let budget = { base with Ddet_replay.Search.base_seed } in
        Option.map
          (fun r ->
            List.map (fun c -> c.Root_cause.id) (Root_cause.observed app.App.catalog r))
          (Session.replay ~budget prepared log).Ddet_replay.Replayer.result)
  in
  let output chan =
    match Trace.outputs_on original.Interp.trace chan with
    | [ Value.Vint n ] -> n
    | _ -> invalid_arg ("msg_server run without one integer " ^ chan ^ " output")
  in
  {
    drop_seed = seed;
    dropped = output "sent" - output "delivered";
    tally =
      List.sort_uniq compare causes
      |> List.map (fun key -> (key, List.length (List.filter (( = ) key) causes)))
      |> List.stable_sort (fun (_, a) (_, b) -> compare b a);
  }

let ablation_rcse () =
  run_matrix
    [
      miniht_race ();
      (Cloudstore.app (), Some Cloudstore.rc_race);
      msg_server_race ();
      (Bufover.app (), None);
    ]
    [
      Model.Rcse Model.Code_based;
      Model.Rcse Model.Data_based;
      Model.Rcse Model.Trigger_based;
      Model.Rcse Model.Combined;
    ]

(* one ensemble per (label, config), all on the app's first cleanly
   attributed seed *)
let sweep ?replays ((app, _) as subject) model configs =
  let seed, _ = find_seed subject in
  List.map
    (fun (label, config) -> (label, ensemble ~config ?replays model app seed))
    configs

let budget_sweep () =
  List.concat_map
    (fun model ->
      sweep ~replays:3 (miniht_race ()) model
        (List.map
           (fun max_attempts ->
             ( max_attempts,
               { Config.default with
                 Config.budget =
                   { Ddet_replay.Search.default_budget with
                     Ddet_replay.Search.max_attempts } } ))
           [ 1; 2; 3; 5; 10; 50 ]))
    [ Model.Failure_det; Model.Rcse Model.Code_based ]

let flight_sweep () =
  sweep (msg_server_race ()) (Model.Rcse Model.Trigger_based)
    (List.map
       (fun flight_ring -> (flight_ring, { Config.default with Config.flight_ring }))
       [ None; Some 8; Some 32; Some 128; Some 512 ])

(* A deliberately race-free workload: the same read-modify-write counter,
   but lock-protected — every cross-thread access pair is ordered through
   the lock, so a precise detector must stay silent. *)
let locked_counter =
  let open Mvm.Dsl in
  program ~name:"locked-counter"
    ~regions:[ scalar "c" (Value.int 0) ]
    ~inputs:[] ~main:"main"
    [
      func "main" []
        [
          spawn "w" []; spawn "w" [];
          recv "d1" "done"; recv "d2" "done";
          output "out" (g "c");
        ];
      func "w" []
        [
          for_ "k" (i 0) (i 6)
            [ lock "m"; assign "t" (g "c"); store_g "c" (v "t" +: i 1); unlock "m" ];
          send "done" (i 1);
        ];
    ]

let race_detectors () =
  let open Ddet_analysis in
  List.concat_map
    (fun (workload, (r : Interp.result)) ->
      let sampling = Race_detector.create Race_detector.default_config in
      Trace.iter (fun e -> ignore (Race_detector.observe sampling e)) r.Interp.trace;
      let hb = Hb_detector.create () in
      Trace.iter (fun e -> ignore (Hb_detector.observe hb e)) r.Interp.trace;
      [
        {
          workload;
          detector = "sampling (window)";
          races = List.length (Race_detector.reports sampling);
          work = Trace.count Event.is_shared_access r.Interp.trace;
        };
        {
          workload;
          detector = "happens-before";
          races = List.length (Hb_detector.reports hb);
          work = Hb_detector.vc_operations hb;
        };
      ])
    [
      ("locked-counter (race-free)",
       Interp.run locked_counter (World.random ~seed:5));
      ("msg_server", App.production_run (Msg_server.app ()) ~seed:3);
      ("miniht", App.production_run (Miniht.app ()) ~seed:1);
    ]

(* The small schedule-only workload for the search comparison. *)
let racy_counter =
  let open Mvm.Dsl in
  program ~name:"racy-counter"
    ~regions:[ scalar "c" (Value.int 0) ]
    ~inputs:[] ~main:"main"
    [
      func "main" []
        [
          spawn "w" []; spawn "w" [];
          recv "d1" "done"; recv "d2" "done";
          output "out" (g "c");
        ];
      func "w" []
        [
          for_ "k" (i 0) (i 4)
            [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ];
          send "done" (i 1);
        ];
    ]

let racy_counter_spec =
  Spec.make "counts-to-eight" (fun r ->
      match Trace.outputs_on r.Interp.trace "out" with
      | [ Value.Vint 8 ] -> Ok ()
      | _ -> Error "lost-update")
