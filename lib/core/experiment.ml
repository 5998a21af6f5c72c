open Mvm
open Ddet_apps
open Ddet_metrics

type row = {
  app : string;
  seed : int;
  assessment : Utility.assessment;
}

type rendered = { title : string; body : string }

(* The original execution of each experiment: the first production seed
   whose failure is cleanly attributed to the bug under study. *)
let find_seed (app : App.t) ~cause ~exclusive =
  match Workload.find_failing_seed ?cause ~exclusive app with
  | Some (seed, original) -> (seed, original)
  | None ->
    invalid_arg
      (Printf.sprintf "no failing production seed found for %s" app.App.name)

let suite () =
  [
    (Adder.app (), None, false);
    (Bufover.app (), None, false);
    (Msg_server.app (), Some "buffer-race", true);
    (Miniht.app (), Some Miniht.rc_race, true);
    (Cloudstore.app (), Some Cloudstore.rc_race, true);
  ]

let run_matrix ?config ?replays apps models =
  List.concat_map
    (fun ((app : App.t), cause, exclusive) ->
      let seed, _ = find_seed app ~cause ~exclusive in
      List.map
        (fun model ->
          {
            app = app.App.name;
            seed;
            assessment = Session.experiment_ensemble ?config ?replays model app ~seed;
          })
        models)
    apps

let fig1 ?config ?replays () =
  run_matrix ?config ?replays (suite ()) Model.fig1_sequence

let assessment_cells (a : Utility.assessment) =
  [
    Report.fx a.overhead;
    Report.fx a.df;
    Report.fx4 a.de;
    Report.fx4 a.du;
    Option.value ~default:"-" a.replay_cause;
  ]

let render_rows rows =
  Report.table
    ~headers:[ "app"; "model"; "overhead"; "DF"; "DE"; "DU"; "replay cause" ]
    (List.map
       (fun r -> (r.app :: r.assessment.Utility.model :: assessment_cells r.assessment))
       rows)

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

let render_fig1 rows =
  let models = List.sort_uniq compare (List.map (fun r -> r.assessment.Utility.model) rows) in
  let order m =
    (* chronological relaxation order, as in the paper's Fig. 1 *)
    match m with
    | "perfect" -> 0 | "value" -> 1 | "sync" -> 2 | "output" -> 3
    | "failure" -> 4 | "rcse" -> 5 | _ -> 6
  in
  let models = List.sort (fun a b -> compare (order a) (order b)) models in
  let agg =
    List.map
      (fun m ->
        let of_model = List.filter (fun r -> r.assessment.Utility.model = m) rows in
        let ov = mean (List.map (fun r -> r.assessment.Utility.overhead) of_model) in
        let du = mean (List.map (fun r -> r.assessment.Utility.du) of_model) in
        let df = mean (List.map (fun r -> r.assessment.Utility.df) of_model) in
        [ m; Report.fx ov; Report.fx df; Report.fx4 du ])
      models
  in
  let dc_rows =
    List.filter
      (fun r -> List.mem r.app [ "msg_server"; "miniht"; "cloudstore" ])
      rows
  in
  let dc_agg =
    List.map
      (fun m ->
        let of_model =
          List.filter (fun r -> r.assessment.Utility.model = m) dc_rows
        in
        let ov = mean (List.map (fun r -> r.assessment.Utility.overhead) of_model) in
        let du = mean (List.map (fun r -> r.assessment.Utility.du) of_model) in
        let df = mean (List.map (fun r -> r.assessment.Utility.df) of_model) in
        [ m; Report.fx ov; Report.fx df; Report.fx4 du ])
      models
  in
  let body =
    "All four applications:\n"
    ^ Report.table ~headers:[ "model"; "overhead(x)"; "DF"; "DU" ] agg
    ^ "\n\nDatacenter applications only (msg_server, miniht, cloudstore — the paper's\n\
       domain, where a control/data-plane split exists):\n"
    ^ Report.table ~headers:[ "model"; "overhead(x)"; "DF"; "DU" ] dc_agg
    ^ "\n\nExpected shape (paper Fig. 1): overhead falls monotonically along the\n\
       relaxation sequence perfect > value > sync > output > failure, while\n\
       debugging utility degrades unpredictably for the ultra-relaxed models;\n\
       RCSE escapes the curve with near-relaxed overhead and high utility.\n\
       On applications with no data plane (adder, bufover) selective\n\
       recording honestly degenerates to full recording — the technique\n\
       targets datacenter software.\n\n\
       Per-app detail:\n" ^ render_rows rows
  in
  { title = "FIG1 relaxation trend: overhead vs. debugging utility"; body }

let fig2_models = [ Model.Value; Model.Failure_det; Model.Rcse Model.Code_based ]

let fig2 ?config ?replays () =
  let app = Miniht.app () in
  run_matrix ?config ?replays [ (app, Some Miniht.rc_race, true) ] fig2_models

let render_fig2 rows =
  let body =
    render_rows rows
    ^ "\n\nExpected shape (paper Fig. 2, Hypertable issue 63): value determinism\n\
       reaches DF 1 at the highest recording overhead (~3.5x there); failure\n\
       determinism records nothing (1.0x) but lands at DF 1/3 (three possible\n\
       root causes: the migration race, a server crash after upload, a dump\n\
       client OOM); RCSE with control-plane selection reaches DF 1 at a small\n\
       multiple of no-recording cost, escaping the Fig. 1 trend.\n"
  in
  { title = "FIG2 miniht (Hypertable issue 63): overhead vs. fidelity"; body }

let sec2_adder ?config () =
  let app = Adder.app () in
  let seed, _ = find_seed app ~cause:None ~exclusive:false in
  let prepared = Session.prepare ?config Model.Output app in
  let original, log = Session.record prepared ~seed in
  let outcome = Session.replay prepared log in
  let a = Session.assess prepared ~original ~log outcome in
  let inputs_of (r : Interp.result) =
    let one chan =
      match Trace.inputs_on r.Interp.trace chan with
      | (_, _, v) :: _ -> Value.to_string v
      | [] -> "?"
    in
    Printf.sprintf "a=%s b=%s -> sum=%s" (one "a") (one "b")
      (match Trace.outputs_on r.Interp.trace "sum" with
      | [ v ] -> Value.to_string v
      | _ -> "?")
  in
  let replay_desc =
    match outcome.Ddet_replay.Replayer.result with
    | Some r ->
      Printf.sprintf "replayed execution: %s (failure: %s)" (inputs_of r)
        (match r.Interp.failure with
        | Some f -> Mvm.Failure.to_string f
        | None -> "none - a correct sum!")
    | None -> "no output-matching execution found"
  in
  let body =
    Printf.sprintf
      "original execution: %s (failure: wrong-sum)\n%s\nDF = %.2f\n\n\
       The paper's Sec. 2 narrative: an output-deterministic replayer may\n\
       produce the recorded output 5 from inputs that sum to 5, which is not\n\
       a failure at all - the developer cannot find the indexing bug.\n"
      (inputs_of original) replay_desc a.Utility.df
  in
  { title = "SEC2-ADDER output determinism loses the failure"; body }

let sec2_drop ?config ?(replays = 10) () =
  let app = Msg_server.app () in
  let seed, original = find_seed app ~cause:(Some "buffer-race") ~exclusive:true in
  let prepared = Session.prepare ?config Model.Failure_det app in
  let _, log = Session.record prepared ~seed in
  let base = prepared.Session.config.Config.budget in
  let causes_of r =
    Root_cause.observed app.App.catalog r
    |> List.map (fun c -> c.Root_cause.id)
  in
  let tally = Hashtbl.create 8 in
  let misleading = ref 0 in
  for k = 0 to replays - 1 do
    let budget =
      { base with Ddet_replay.Search.base_seed = base.Ddet_replay.Search.base_seed + (7919 * k) }
    in
    let outcome = Session.replay ~budget prepared log in
    let key =
      match outcome.Ddet_replay.Replayer.result with
      | None -> "(not reproduced)"
      | Some r ->
        let causes = causes_of r in
        if not (List.mem "buffer-race" causes) then incr misleading;
        String.concat "+" causes
    in
    Hashtbl.replace tally key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tally key))
  done;
  let dist =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
    |> List.map (fun (k, v) -> [ k; string_of_int v ])
  in
  let body =
    Printf.sprintf
      "original run (seed %d): %d messages dropped by the buffer race only\n\
       (no network congestion).\n\n\
       failure-determinism replays (%d independent syntheses), causes observed:\n%s\n\n\
       %d/%d replays reproduce the drop WITHOUT the buffer race - via network\n\
       congestion, which is beyond the developer's control. The paper's Sec. 2:\n\
       such a replay deceives the developer into thinking nothing can be done,\n\
       and the true root cause (the race) remains undiscovered.\n"
      seed
      (match original.Interp.failure with Some _ -> 1 | None -> 0)
      replays
      (Report.table ~headers:[ "replay causes"; "count" ] dist)
      !misleading replays
  in
  { title = "SEC2-DROP failure determinism can blame the environment"; body }

let rcse_models =
  [
    Model.Rcse Model.Code_based;
    Model.Rcse Model.Data_based;
    Model.Rcse Model.Trigger_based;
    Model.Rcse Model.Combined;
  ]

let ablation_rcse ?config ?replays () =
  let apps =
    [
      (Miniht.app (), Some Miniht.rc_race, true);
      (Cloudstore.app (), Some Cloudstore.rc_race, true);
      (Msg_server.app (), Some "buffer-race", true);
      (Bufover.app (), None, false);
    ]
  in
  run_matrix ?config ?replays apps rcse_models

let render_ablation rows =
  let body =
    render_rows rows
    ^ "\n\nReading guide: code-based selection shines when the root cause is\n\
       control-plane (miniht) and degenerates when it is not (msg_server's\n\
       buffer race is data-plane; bufover has no plane split, so everything\n\
       is recorded). Data-based selection needs an invariant related to the\n\
       root cause (bufover's trained input range catches the overflow;\n\
       miniht's race violates no simple range). Trigger-based selection\n\
       needs a detector for the defect class (the race detector fires on\n\
       msg_server and miniht). Combined selection is the union, at the\n\
       union's cost — the Sec. 3.1.3 design point.\n"
  in
  { title = "ABL-RCSE selection heuristics compared"; body }

let budget_sweep ?config () =
  let app = Miniht.app () in
  let seed, _ = find_seed app ~cause:(Some Miniht.rc_race) ~exclusive:true in
  let budgets = [ 1; 2; 3; 5; 10; 50 ] in
  let models = [ Model.Failure_det; Model.Rcse Model.Code_based ] in
  let rows =
    List.concat_map
      (fun model ->
        let prepared = Session.prepare ?config model app in
        let original, log = Session.record prepared ~seed in
        List.map
          (fun max_attempts ->
            let replays = 3 in
            let assessments =
              List.init replays (fun k ->
                  let budget =
                    {
                      Ddet_replay.Search.max_attempts;
                      max_steps_per_attempt = 50_000;
                      base_seed = 1 + (7919 * k);
                      deadline_s = None;
                    }
                  in
                  let outcome = Session.replay ~budget prepared log in
                  Session.assess prepared ~original ~log outcome)
            in
            let m f = mean (List.map f assessments) in
            [
              Model.name model;
              string_of_int max_attempts;
              Report.fx (m (fun (a : Utility.assessment) -> a.df));
              Report.fx4 (m (fun a -> a.de));
              Report.fx4 (m (fun a -> a.du));
            ])
          budgets)
      models
  in
  let body =
    Report.table ~headers:[ "model"; "budget(attempts)"; "DF"; "DE"; "DU" ] rows
    ^ "\n\nThe Sec. 3.2 efficiency discussion, measured: DF climbs with the\n\
       inference budget until it hits the model's fidelity ceiling (1/3 for\n\
       failure determinism on this bug, 1 for RCSE); past that point extra\n\
       budget buys nothing — the gap is the determinism model's, not the\n\
       search's. RCSE needs almost no search because the control plane is\n\
       pinned, so its DE stays near 1 even at tiny budgets.\n"
  in
  { title = "ABL-BUDGET inference budget vs. debugging efficiency"; body }

let flight_sweep ?(config = Config.default) ?(replays = 5) () =
  let app = Msg_server.app () in
  let seed, _ = find_seed app ~cause:(Some "buffer-race") ~exclusive:true in
  let capacities = [ None; Some 8; Some 32; Some 128; Some 512 ] in
  let rows =
    List.map
      (fun flight_ring ->
        let config = { config with Config.flight_ring } in
        let a =
          Session.experiment_ensemble ~config ~replays
            (Model.Rcse Model.Trigger_based) app ~seed
        in
        (match flight_ring with None -> "off" | Some n -> string_of_int n)
        :: assessment_cells a)
      capacities
  in
  let body =
    Report.table
      ~headers:[ "ring"; "overhead"; "DF"; "DE"; "DU"; "replay cause" ]
      rows
    ^ "\n\nTrigger-based selection only records *after* the race detector\n\
       fires, but the root cause lives in the moments before it: without a\n\
       flight ring the replay search is free to explain the drop with\n\
       network congestion instead (lower DF). A larger ring pins more of\n\
       the pre-trigger inputs — fidelity climbs toward 1 — at a recording\n\
       cost that grows with the buffered data. This is the classic\n\
       flight-data-recorder compromise of always-on tracing systems.\n"
  in
  { title = "ABL-FLIGHT pre-trigger ring capacity vs. fidelity"; body }

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

let race_detectors ?config () =
  ignore config;
  let open Ddet_analysis in
  let runs =
    [
      ("locked-counter (race-free)",
       Interp.run locked_counter (World.random ~seed:5));
      ("msg_server", App.production_run (Msg_server.app ()) ~seed:3);
      ("miniht", App.production_run (Miniht.app ()) ~seed:1);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, (r : Interp.result)) ->
        let accesses = Trace.count Event.is_shared_access r.Interp.trace in
        let sampling = Race_detector.create Race_detector.default_config in
        Trace.iter (fun e -> ignore (Race_detector.observe sampling e)) r.Interp.trace;
        let hb = Hb_detector.create () in
        Trace.iter (fun e -> ignore (Hb_detector.observe hb e)) r.Interp.trace;
        [
          [
            name; "sampling (window)";
            string_of_int (List.length (Race_detector.reports sampling));
            string_of_int accesses;
          ];
          [
            name; "happens-before";
            string_of_int (List.length (Hb_detector.reports hb));
            string_of_int (Hb_detector.vc_operations hb);
          ];
        ])
      runs
  in
  let body =
    Report.table
      ~headers:[ "workload"; "detector"; "races reported"; "work (ops)" ]
      rows
    ^ "\n\nThe sampling window detector is cheap (one table probe per access)\n\
       but unsound: on the lock-protected counter it reports conflicting\n\
       accesses that are in fact ordered through the lock. The vector-clock\n\
       happens-before detector is precise — silent on the locked counter,\n\
       and it still finds the real races — but pays vector-clock work on\n\
       every operation. That cost asymmetry is why the paper's trigger\n\
       proposal (Sec. 3.1.3) cites *low-overhead* race detection for\n\
       production dial-up, accepting occasional spurious dial-ups.\n"
  in
  { title = "ABL-RACE sampling vs. happens-before race detection"; body }

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

let run_all ?config () =
  [
    render_fig1 (fig1 ?config ());
    render_fig2 (fig2 ?config ());
    sec2_adder ?config ();
    sec2_drop ?config ();
    render_ablation (ablation_rcse ?config ());
    budget_sweep ?config ();
    flight_sweep ?config ();
    race_detectors ?config ();
  ]
