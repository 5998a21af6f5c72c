(* Benchmark harness: regenerates every evaluation artifact of the paper
   (Fig. 1, Fig. 2, the Sec. 2 narratives, the Sec. 5 open questions,
   plus the RCSE, search and budget ablations) and times the actual
   recorders.

   Usage: main.exe [paper|search|sanity|crash|governor|static|dist|obs|micro|all]
                   [--jobs N] [--json]

   --jobs N times the random restarts at N worker domains as well as at 1
   --json   paper, search, crash, governor, static, dist, obs and micro
            also write their rows to BENCH_<section>.json in the current
            directory; without it no section writes a file *)

open Ddet
open Ddet_apps
open Ddet_record

(* ------------------------------------------------------------------ *)
(* Reporting. A section builds its rows once, as keyed and typed cells;
   the console table (a column's header is its key) and the section's
   BENCH_<section>.json are both rendered from them, so the two cannot
   disagree. *)

type cell =
  | S of string
  | I of int
  | B of bool
  | F of int * float  (** decimals, value *)
  | L of string list
  | O of (string * cell) list
  | W of cell
      (** machine-dependent (wall-clock, a rate or ratio of it, cores):
          printed as its inner cell, listed in the envelope's [unchecked] *)

type table = {
  title : string;
  key : string;  (** the artifact member holding the rows *)
  rows : (string * cell) list list;
  note : string;  (** printed under the console table *)
}

let rec json = function
  | S s -> Printf.sprintf "%S" s
  | I n -> string_of_int n
  | B b -> string_of_bool b
  | F (decimals, x) -> Printf.sprintf "%.*f" decimals x
  | L l -> "[" ^ String.concat ", " (List.map (Printf.sprintf "%S") l) ^ "]"
  | O members ->
    "{ "
    ^ String.concat ", "
        (List.map (fun (k, c) -> Printf.sprintf "%S: %s" k (json c)) members)
    ^ " }"
  | W c -> json c

let rec text = function
  | S s -> s
  | B b -> if b then "yes" else "NO"
  | L [] -> "-"
  | L l -> String.concat "+" l
  | W c -> text c
  | c -> json c

let print_table ~title ?(note = "") rows =
  let headers = match rows with r :: _ -> List.map fst r | [] -> [] in
  Ddet_metrics.Report.print_section title
    (Ddet_metrics.Report.table ~headers
       (List.map (List.map (fun (_, c) -> text c)) rows)
    ^ note)

(* The envelope every artifact carries. [schema] is one constant for all
   seven files: bump it whenever any artifact's layout changes. *)
let schema = 6

(* the distinct values, in order of first appearance *)
let distinct xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

(* The keys of a section's [W] cells: "k" for a top-level field, "t.k" for
   field k of table t's rows. Every row of a table wraps the same keys. *)
let unchecked fields tables =
  let keys prefix = List.filter_map (function k, W _ -> Some (prefix ^ k) | _ -> None) in
  keys "" fields
  @ List.concat_map
      (fun t ->
        match distinct (List.map (keys (t.key ^ ".")) t.rows) with
        | [] -> []
        | [ ks ] -> ks
        | _ ->
          invalid_arg (Printf.sprintf "report: rows of table %S wrap different keys" t.key))
      tables

(* Prints the section's tables and its envelope; with [json], writes them
   to BENCH_<name>.json: the envelope, then the section's own top-level
   [fields], then one member per table. *)
let report ~json:write ~trials ?(fields = []) name tables =
  List.iter (fun t -> print_table ~title:t.title ~note:t.note t.rows) tables;
  let cores = ("cores", W (I (Domain.recommended_domain_count ()))) in
  let envelope =
    [
      ("schema", I schema);
      cores;
      ("trials", I trials);
      ("unchecked", L (unchecked (cores :: fields) tables));
    ]
    @ fields
  in
  print_newline ();
  List.iter (fun (k, c) -> Printf.printf "%s: %s\n" k (json c)) envelope;
  if write then begin
    let file = Printf.sprintf "BENCH_%s.json" name in
    let members =
      List.map (fun (k, c) -> Printf.sprintf "  %S: %s" k (json c)) envelope
      @ List.map
          (fun t ->
            Printf.sprintf "  %S: [\n%s\n  ]" t.key
              (String.concat ",\n"
                 (List.map (fun r -> "    " ^ json (O r)) t.rows)))
          tables
    in
    let oc = open_out file in
    output_string oc ("{\n" ^ String.concat ",\n" members ^ "\n}\n");
    close_out oc;
    Printf.printf "wrote %s\n" file
  end

(* wall time on the monotonic clock (an NTP step cannot move it), floored
   at 1 ns so a ratio of two timings never divides by zero *)
let time f =
  let t0 = Ddet_obs.Clock.now () in
  let r = f () in
  (r, max 1e-9 (Ddet_obs.Clock.s_of_ns (Ddet_obs.Clock.elapsed_ns t0)))

(* min over [trials] runs: wall-clock on a shared box is noise plus the
   true cost, and min is the estimator least polluted by the noise *)
let min_time ~trials f =
  let out = ref None and best = ref infinity in
  for _ = 1 to max 1 trials do
    let r, s = time f in
    out := Some r;
    if s < !best then best := s
  done;
  (Option.get !out, !best)

(* the [p]-quantile of [xs], interpolating linearly between ranks *)
let quantile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  let pos = p *. float_of_int (Array.length a - 1) in
  let lo = int_of_float pos in
  let hi = min (lo + 1) (Array.length a - 1) in
  a.(lo) +. ((a.(hi) -. a.(lo)) *. (pos -. float_of_int lo))

(* a search budget from base seed 1, with no deadline *)
let budget max_attempts max_steps_per_attempt =
  { Ddet_replay.Search.max_attempts; max_steps_per_attempt; base_seed = 1;
    deadline_s = None }

(* [f base] on a fresh temporary base path; afterwards every file named
   base* (a checkpoint, a shard set and its manifest, side files) is
   removed *)
let with_temp_base suffix f =
  let base = Filename.temp_file "ddet_bench" suffix in
  let dir = Filename.dirname base and name = Filename.basename base in
  Fun.protect
    (fun () -> f base)
    ~finally:(fun () ->
      Array.iter
        (fun file ->
          if String.starts_with ~prefix:name file then
            Sys.remove (Filename.concat dir file))
        (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* PAPER: Fig. 1, Fig. 2, the Sec. 2 narratives, the budget, flight,
   race and RCSE ablations and the Sec. 5 open questions. Every cell is
   deterministic (modelled overhead, step-count DE, seeded searches with
   no deadline, one domain), so bench-smoke compares the artifact with
   the committed copy field by field. *)

let assessment_cells (a : Ddet_metrics.Utility.assessment) =
  [ ("overhead", F (2, a.overhead)); ("df", F (2, a.df)); ("de", F (4, a.de));
    ("du", F (4, a.du));
    ("replay_cause", S (Option.value ~default:"-" a.replay_cause)) ]

let app_rows =
  List.map (fun (r : Experiment.row) ->
      ("app", S r.app) :: ("model", S r.assessment.model)
      :: assessment_cells r.assessment)

let fig1 () =
  let rows = Experiment.fig1 () in
  let app (r : Experiment.row) = r.app
  and model (r : Experiment.row) = r.assessment.model in
  (* per-model means over the rows of [apps], titled from those rows *)
  let means key apps note =
    let rows = List.filter (fun r -> List.mem (app r) apps) rows in
    let mean m f =
      let rs = List.filter (fun r -> model r = m) rows in
      List.fold_left (fun acc (r : Experiment.row) -> acc +. f r.assessment) 0. rs
      /. float_of_int (List.length rs)
    in
    { title =
        "FIG1 per-model means over " ^ String.concat ", " (distinct (List.map app rows));
      key; note;
      rows =
        List.map
          (fun m ->
            [ ("model", S m); ("overhead", F (2, mean m (fun a -> a.overhead)));
              ("df", F (2, mean m (fun a -> a.df)));
              ("du", F (4, mean m (fun a -> a.du))) ])
          (distinct (List.map model rows)) }
  in
  [ means "fig1_all" (distinct (List.map app rows)) "";
    means "fig1_datacenter" [ "msg_server"; "miniht"; "cloudstore" ]
      "\n\nThe datacenter applications: the paper's domain, where a\n\
       control/data-plane split exists.\n";
    { title = "FIG1 relaxation trend: overhead vs. debugging utility"; key = "fig1_apps";
      rows = app_rows rows;
      note =
        "\n\nExpected shape (paper Fig. 1): overhead falls monotonically along the\n\
         relaxation sequence perfect > value > sync > output > failure, while\n\
         debugging utility degrades unpredictably for the ultra-relaxed models;\n\
         RCSE escapes the curve with near-relaxed overhead and high utility.\n\
         On applications with no data plane (adder, bufover) selective\n\
         recording honestly degenerates to full recording: the technique\n\
         targets datacenter software.\n" } ]

let fig2 () =
  { title = "FIG2 miniht (Hypertable issue 63): overhead vs. fidelity"; key = "fig2";
    rows = app_rows (Experiment.fig2 ());
    note =
      "\n\nExpected shape (paper Fig. 2): value determinism reaches DF 1 at the\n\
       highest recording overhead (~3.5x there); failure determinism records\n\
       nothing (1.0x) but lands at DF 1/3 (three possible root causes: the\n\
       migration race, a server crash after upload, a dump client OOM); RCSE\n\
       with control-plane selection reaches DF 1 at a small multiple of\n\
       no-recording cost, escaping the Fig. 1 trend.\n" }

(* an adder run's inputs, "a=2 b=2" *)
let adder_inputs (r : Mvm.Interp.result) =
  let one chan =
    match Mvm.Trace.inputs_on r.trace chan with
    | (_, _, v) :: _ -> Mvm.Value.to_string v
    | [] -> "?"
  in
  Printf.sprintf "a=%s b=%s" (one "a") (one "b")

let failure_text (r : Mvm.Interp.result) =
  Option.fold ~none:"none" ~some:Mvm.Failure.to_string r.failure

let sec2 () =
  let adder = Experiment.sec2_adder () and drop = Experiment.sec2_drop () in
  let run (r : Mvm.Interp.result) =
    match Mvm.Trace.outputs_on r.trace "sum" with
    | [ v ] -> adder_inputs r ^ " -> sum=" ^ Mvm.Value.to_string v
    | _ -> adder_inputs r ^ " -> sum=?"
  in
  (* the replays whose causes satisfy [p] *)
  let count p =
    List.fold_left
      (fun n (causes, k) -> if Option.fold ~none:false ~some:p causes then n + k else n)
      0 drop.tally
  in
  [ { title = "SEC2-ADDER output determinism loses the failure"; key = "sec2_adder";
      rows =
        [ [ ("seed", I adder.row.seed); ("original", S (run adder.original));
            ("original_failure", S (failure_text adder.original));
            ("replay", S (Option.fold ~none:"(not reproduced)" ~some:run adder.replay));
            ( "replay_failure",
              S (Option.fold ~none:"-" ~some:failure_text adder.replay) );
            ("df", F (2, adder.row.assessment.df)) ] ];
      note =
        "\n\nThe paper's Sec. 2 narrative: an output-deterministic replayer may\n\
         produce the recorded output 5 from inputs that sum to 5, which is not\n\
         a failure at all - the developer cannot find the indexing bug.\n" };
    { title = "SEC2-DROP failure determinism can blame the environment";
      key = "sec2_drop";
      rows =
        List.map
          (fun (causes, count) ->
            [ ("seed", I drop.drop_seed); ("dropped", I drop.dropped);
              ( "replay_causes",
                S (Option.fold ~none:"(not reproduced)" ~some:(String.concat "+")
                     causes) );
              ("count", I count) ])
          drop.tally;
      note =
        Printf.sprintf
          "\n\nThe original run lost its messages to the buffer race alone (no\n\
           network congestion); each row counts the failure-determinism replays\n\
           that blame those causes. %d/%d replays reproduce the drop WITHOUT the\n\
           buffer race - via congestion, beyond the developer's control. The\n\
           paper's Sec. 2: such a replay deceives the developer into thinking\n\
           nothing can be done, and the true root cause stays undiscovered.\n"
          (count (fun cs -> not (List.mem "buffer-race" cs)))
          (count (fun _ -> true)) } ]

let abl_budget () =
  { title = "ABL-BUDGET inference budget vs. debugging efficiency"; key = "budget";
    rows =
      List.map
        (fun (attempts, ({ assessment = a; _ } : Experiment.row)) ->
          [ ("model", S a.model); ("budget", I attempts); ("df", F (2, a.df));
            ("de", F (4, a.de)); ("du", F (4, a.du)) ])
        (Experiment.budget_sweep ());
    note =
      "\n\nbudget: the attempts each of 3 replays may spend. The Sec. 3.2\n\
       efficiency discussion, measured: DF climbs with the budget until it\n\
       hits the model's fidelity ceiling (1/3 for failure determinism on\n\
       this bug, 1 for RCSE); past that point extra budget buys nothing.\n\
       RCSE needs almost no search because the control plane is pinned, so\n\
       its DE stays near 1 even at the smallest budgets.\n" }

let abl_flight () =
  { title = "ABL-FLIGHT pre-trigger ring capacity vs. fidelity"; key = "flight";
    rows =
      List.map
        (fun (ring, (r : Experiment.row)) ->
          ("ring", S (Option.fold ~none:"off" ~some:string_of_int ring))
          :: assessment_cells r.assessment)
        (Experiment.flight_sweep ());
    note =
      "\n\nTrigger-based selection only records *after* the race detector\n\
       fires, but the root cause lives in the moments before it: without a\n\
       flight ring the replay may explain the drop with network congestion\n\
       instead (lower DF). A ring pins the pre-trigger inputs, at a recording\n\
       cost that grows with the buffered data: the flight-data-recorder\n\
       compromise of always-on tracing.\n" }

let abl_race () =
  { title = "ABL-RACE sampling vs. happens-before race detection"; key = "race";
    rows =
      List.map
        (fun (d : Experiment.detection) ->
          [ ("workload", S d.workload); ("detector", S d.detector); ("races", I d.races);
            ("work", I d.work) ])
        (Experiment.race_detectors ());
    note =
      "\n\nwork: shared accesses probed (sampling) or vector-clock operations\n\
       (happens-before). The sampling window detector is cheap but unsound:\n\
       on the lock-protected counter it reports accesses the lock orders.\n\
       The happens-before detector is precise, and still finds the real\n\
       races, but pays vector-clock work on every operation. That is why the\n\
       paper's trigger (Sec. 3.1.3) cites *low-overhead* race detection,\n\
       accepting occasional spurious dial-ups.\n" }

(* OPEN-ALLRC and OPEN-DOMAINS, the Sec. 5 open questions *)
let open_questions () =
  let miniht = Miniht.app () and adder = Adder.app () in
  let seed, original = Experiment.find_seed (miniht, Some Miniht.rc_race) in
  let _, log =
    Recorder.record Recorder.failure miniht.App.labeled ~spec:miniht.App.spec
      ~world:(Mvm.World.random ~seed)
  in
  let o = Explore.all_root_causes miniht ~log in
  (* a row per model: its [cells] for [app]'s run at [seed], recorded and
     replayed once *)
  let per_model (app : App.t) seed cells =
    List.map
      (fun model ->
        let prepared = Session.prepare model app in
        let original, log = Session.record prepared ~seed in
        ("model", S (Model.name model))
        :: cells ~original (Session.replay prepared log).Ddet_replay.Replayer.result)
      Model.[ Perfect; Value; Sync; Output; Failure_det; Rcse Code_based ]
  in
  let regions = miniht.App.labeled.Mvm.Label.prog.Mvm.Ast.regions in
  [ { title = "OPEN-ALLRC enumerating every root cause from the failure";
      key = "open_allrc";
      rows =
        [ [ ("seed", I seed); ("failure", S (failure_text original));
            ("original_steps", I original.steps); ("attempts", I o.attempts);
            ("steps", I o.total_steps); ("catalog_covered", B o.complete) ] ];
      note =
        "\n\nExploration from the failure-determinism log alone, until the\n\
         catalog is covered or the budget runs out.\n" };
    { title = "OPEN-ALLRC root causes in order of discovery";
      key = "open_allrc_witnesses";
      rows =
        List.map
          (fun (w : Explore.witness) ->
            [ ("root_cause", S w.cause_id); ("found_at_attempt", I w.found_at_attempt);
              ("cumulative_steps", I w.steps_so_far) ])
          o.witnesses;
      note =
        "\n\nThe first cause surfaces cheaply; covering the catalog costs an\n\
         order of magnitude more synthesis: finding ALL root-cause-equivalent\n\
         executions is ideal, but 'the challenge is scaling this approach'.\n" };
    { title = "OPEN-DOMAINS forensic analysis (adder audit)"; key = "open_forensic";
      rows =
        per_model adder (fst (Experiment.find_seed (adder, None)))
          (fun ~original -> function
          | None -> [ ("forensic_fidelity", S "-"); ("evidence", S "(not replayed)") ]
          | Some replay ->
            [ ("forensic_fidelity", F (2, Frontier.forensic_fidelity ~original ~replay));
              ("evidence", S ("replayed inputs " ^ adder_inputs replay)) ]);
      note =
        "\n\nAn audit must reproduce the exact I/O history (original inputs\n\
         a=2 b=2 -> 5): forensic_fidelity is the fraction of channels whose\n\
         input/output sequences match. Output determinism forges the inputs\n\
         behind the recorded output, so the audit blames the wrong request.\n" };
    { title = "OPEN-DOMAINS fault tolerance (miniht replica)";
      key = "open_fault_tolerance";
      rows =
        per_model miniht seed (fun ~original -> function
          | None -> [ ("state_divergence", S "-") ]
          | Some replay ->
            [ ( "state_divergence",
                F (2, Frontier.state_divergence ~regions ~original ~replay) ) ]);
      note =
        "\n\nstate_divergence: the fraction of shared cells whose final value\n\
         differs from the original's. A backup needs 0; models that pin\n\
         per-thread values or sync order reach it, while the ultra-relaxed\n\
         ones reach *a* failure state, not *the* state. The sweet spot\n\
         depends on the domain: the paper's closing question.\n" } ]

let abl_rcse () =
  { title = "ABL-RCSE selection heuristics compared"; key = "rcse";
    rows = app_rows (Experiment.ablation_rcse ());
    note =
      "\n\nReading guide: code-based selection shines when the root cause is\n\
       control-plane (miniht) and degenerates when it is not (msg_server's\n\
       buffer race is data-plane; bufover has no plane split, so everything\n\
       is recorded). Data-based selection needs an invariant related to the\n\
       root cause (bufover's trained input range catches the overflow).\n\
       Trigger-based selection needs a detector for the defect class (the\n\
       race detector fires on msg_server and miniht). Combined selection is\n\
       the union, at the union's cost: the Sec. 3.1.3 design point.\n" }

let paper ~json () =
  report ~json ~trials:1 "paper"
    (List.concat
       [ fig1 (); [ fig2 () ]; sec2 ();
         [ abl_budget (); abl_flight (); abl_race (); abl_rcse () ];
         open_questions () ])

(* ------------------------------------------------------------------ *)
(* MICRO: wall-clock cost of the recorders themselves, grounding the
   cost model's claim that entry volume drives recording cost. Each row
   records one fixed failing seed (the codec table's) under one model,
   alternating [micro_reps] times an unrecorded production run of the
   seed and its recording, as a session makes it (Session.record); the
   medians resist the shared host's noise. The log's entries, bytes and
   modeled overhead reproduce exactly; the times do not. *)

let micro_reps = 150

let micro_models =
  [ "perfect"; "value"; "sync"; "output"; "failure"; "rcse-code"; "rcse-data";
    "rcse-trigger"; "rcse" ]

let micro_rows () =
  List.concat_map
    (fun ((app : App.t), seed) ->
      List.map
        (fun name ->
          let model =
            match Model.of_string name with Ok m -> m | Error e -> invalid_arg e
          in
          let prepared = Session.prepare model app in
          let _, log = Session.record prepared ~seed in
          let run = ref [] and recorded = ref [] in
          for _ = 1 to micro_reps do
            run := snd (time (fun () -> App.production_run app ~seed)) :: !run;
            recorded := snd (time (fun () -> Session.record prepared ~seed)) :: !recorded
          done;
          let run_s = quantile !run 0.5 and record_s = quantile !recorded 0.5 in
          [
            ("app", S app.App.name);
            ("recorder", S name);
            ("seed", I seed);
            ("entries", I (Log.entry_count log));
            ("bytes", I (Log.payload_bytes log));
            ("modeled_x", F (2, Cost_model.overhead Cost_model.default log));
            ("run_us", W (F (1, run_s *. 1e6)));
            ("record_us", W (F (1, record_s *. 1e6)));
            ("measured_x", W (F (2, record_s /. run_s)));
          ])
        micro_models)
    [ (Miniht.app (), 1); (Cloudstore.app (), 9) ]

let micro ~json () =
  report ~json ~trials:micro_reps "micro"
    [
      {
        title = "MICRO recorder wall-clock vs. cost model";
        key = "recorders";
        rows = micro_rows ();
        note =
          "\n\nmeasured_x is a recording's in-process wall-clock over the\n\
           unrecorded run's (medians of alternating reps): the monitoring\n\
           callbacks, the selectors every RCSE event passes through, and\n\
           the entries kept. modeled_x prices what a production\n\
           implementation would pay to persist each entry class\n\
           (CREW-order schedule points, per-byte value logging - see\n\
           Cost_model) on the same log's entries and bytes, which is why\n\
           the experiments report modeled overhead.\n";
      };
    ]

(* ------------------------------------------------------------------ *)
(* The search workloads shared by search and crash, with their budgets.
   The DFS step cap matters: a systematic scheduler happily spins a
   polling server for the whole budget, so each attempt is bounded. *)

let search_workloads () =
  let miniht = Miniht.app () in
  [
    ( "racy-counter", Experiment.racy_counter, Experiment.racy_counter_spec,
      budget 3_000 5_000 );
    ("miniht", miniht.App.labeled, miniht.App.spec, budget 300 5_000);
  ]

(* The failing run search, sanity and crash replay: the first seed in
   1..500 whose production run fails, recorded under the failure
   recorder, and the acceptor that matches its failure. *)
let failing_log workload labeled spec =
  let world seed = Mvm.World.random ~seed in
  let rec scan seed =
    if seed > 500 then invalid_arg ("no failing seed for " ^ workload)
    else
      let r = Mvm.Spec.apply spec (Mvm.Interp.run labeled (world seed)) in
      if r.Mvm.Interp.failure <> None then seed else scan (seed + 1)
  in
  let _, log =
    Recorder.record Recorder.failure labeled ~spec
      ~world:(world (scan 1))
  in
  (log, Ddet_replay.Constraints.failure_matches log)

(* ------------------------------------------------------------------ *)
(* ORACLES: what a replay oracle costs per step against the program it
   steers. Per app and oracle: the log its model records of the app's
   first failing seed, and the first attempt a replay driver runs on it
   (the oracle built from the log under seed 2, its abort hook attached,
   judged as the driver judges it). The attempt is timed [runs] times,
   each timing paired with one of the recorded seed's random-world run,
   the original execution, alternating on one domain;
   the per-step costs are the medians over the step counts. Steps and
   the verdict are deterministic; the timings are not. *)

let oracle_table () =
  let open Ddet_replay in
  let runs = 200 in
  let seed = 2 in
  (* name, model, and the attempt: world, abort hook, acceptance *)
  let oracles =
    [
      ( "perfect", Model.Perfect,
        fun log ->
          let h = Oracle.perfect log in
          ( h.Oracle.world, h.Oracle.abort,
            fun r -> (not (h.Oracle.violated ())) && Constraints.failure_matches log r ) );
      ( "value", Model.Value,
        fun log ->
          let h = Oracle.value_det ~seed log in
          (h.Oracle.world, h.Oracle.abort, Constraints.failure_matches log) );
      ( "sync", Model.Sync,
        fun log ->
          let h = Oracle.sync ~seed log in
          ( h.Oracle.world,
            Constraints.both h.Oracle.abort (Constraints.output_prefix_abort log),
            Constraints.outputs_match log ) );
      ( "rcse-strict", Model.Rcse Model.Code_based,
        fun log ->
          let h = Oracle.rcse ~strict:true ~seed log in
          (h.Oracle.world, h.Oracle.abort, Constraints.failure_matches log) );
      ( "rcse-windowed", Model.Rcse Model.Combined,
        fun log ->
          let h = Oracle.rcse ~strict:false ~seed log in
          (h.Oracle.world, h.Oracle.abort, Constraints.failure_matches log) );
    ]
  in
  let timed f = snd (time f) in
  let rows =
    List.concat_map
      (fun (app : App.t) ->
        let rec failing seed =
          if (App.production_run app ~seed).Mvm.Interp.failure <> None then seed
          else failing (seed + 1)
        in
        let recorded = failing 1 in
        let c = Mvm.Interp.compile app.App.labeled in
        let original () =
          Mvm.Interp.run_compiled c (Mvm.World.random ~seed:recorded)
        in
        let base_steps = (original ()).Mvm.Interp.steps in
        List.map
          (fun (oracle, model, attempt) ->
            let _, log = Session.record (Session.prepare model app) ~seed:recorded in
            let replay () =
              let world, abort, accept = attempt log in
              (Mvm.Interp.run_compiled ~abort c world, accept)
            in
            let r, accept = replay () in
            let reproduced = accept (Mvm.Spec.apply app.App.spec r) in
            (* start from a collected heap, so what earlier rows left on
               it does not bias one side, and alternate the order: a
               fixed one lets one side absorb the GC debt the other ran
               up *)
            Gc.full_major ();
            let samples =
              List.init runs (fun k ->
                  if k land 1 = 0 then
                    let a = timed replay in
                    (a, timed original)
                  else
                    let b = timed original in
                    (timed replay, b))
            in
            let per_step times steps =
              quantile times 0.5 *. 1e9 /. float_of_int (max 1 steps)
            in
            let ns = per_step (List.map fst samples) r.Mvm.Interp.steps in
            let random_ns = per_step (List.map snd samples) base_steps in
            [
              ("app", S app.App.name);
              ("oracle", S oracle);
              ("steps", I r.Mvm.Interp.steps);
              ("reproduced", B reproduced);
              ("ns_per_step", W (F (1, ns)));
              ("random_ns_per_step", W (F (1, random_ns)));
              ("ratio", W (F (2, ns /. random_ns)));
            ])
          oracles)
      [ Miniht.app (); Cloudstore.app () ]
  in
  {
    title = "ORACLES replay attempt cost per step against a random world";
    key = "oracles";
    rows;
    note =
      Printf.sprintf
        "\n\nOne attempt of each oracle on its model's log of the app's first\n\
         failing seed (attempt seed %d), and the recorded seed's random-world\n\
         run, each timed %d times, alternating on one domain. ns_per_step and\n\
         random_ns_per_step are the median times over the step counts; ratio\n\
         is their quotient: 1.00 means the oracle steers at the\n\
         interpreter's own speed.\n"
        seed runs;
  }

(* ------------------------------------------------------------------ *)
(* SEARCH (ABL-SEARCH): wall-clock and outcome of the inference engines.
   Per workload/engine: a sequential row; for random restarts, which run
   through the lock-free attempt pool, also a jobs=N row under the pool's
   fixed policy (which clamps N to the machine's cores). The DFS runs in
   order at any jobs, so it gets the sequential row only. *)

let search_bench ~jobs ~json () =
  let open Ddet_replay in
  let trials = 3 in
  let rows =
    List.concat_map
      (fun (workload, labeled, spec, bud) ->
        let _, accept = failing_log workload labeled spec in
        (* (engine, runs through the attempt pool, run at jobs): the
           odometer engines run in order and take no jobs *)
        let engines =
          [
            ( "dfs", false,
              fun _ -> Search.dfs_schedules bud ~spec ~accept labeled );
            ( "restarts", true,
              fun j ->
                Search.random_restarts ~jobs:j bud
                  ~make:(fun ~attempt ->
                    (Mvm.World.random ~seed:attempt, None))
                  ~spec ~accept labeled );
          ]
        in
        List.concat_map
          (fun (engine, pooled, run) ->
            let measure j = min_time ~trials (fun () -> run j) in
            let seq = measure 1 in
            let row j mode ((o : Search.outcome), wall_s) =
              let st = o.Search.stats in
              let steps = max 1 st.Search.total_steps in
              [
                ("workload", S workload);
                ("engine", S engine);
                ("jobs", I j);
                ("jobs_effective", W (I (Par_search.effective_jobs ~jobs:j None)));
                ("mode", W (S mode));
                ("wall_s", W (F (6, wall_s)));
                ("success", B st.Search.success);
                ("attempts", I st.Search.attempts);
                ("pruned", I st.Search.pruned);
                ("steps", I st.Search.total_steps);
                ( "attempts_per_s",
                  W (F (1, float_of_int st.Search.attempts /. wall_s)) );
                ("ns_per_step", W (F (1, wall_s *. 1e9 /. float_of_int steps)));
                ("speedup_vs_1", W (F (3, snd seq /. wall_s)));
              ]
            in
            row 1 "sequential" seq
            ::
            (if jobs <= 1 || not pooled then []
             else
               let eff = Par_search.effective_jobs ~jobs None in
               let mode = if eff < jobs then "capped" else "parallel" in
               [ row jobs mode (measure jobs) ]))
          engines)
      (search_workloads ())
  in
  let t = Par_search.default_tuning in
  report ~json ~trials "search"
    ~fields:
      [
        ("jobs", I jobs);
        ( "policy",
          S
            "the pool's fixed policy caps jobs at cores (capped rows); the dfs \
             runs in order at any jobs (sequential rows only)" );
        ( "pool",
          O
            [
              ("chunk", I t.Par_search.chunk);
              ("window_per_job", I t.Par_search.window_per_job);
              ("spawn_cost_steps", I t.Par_search.spawn_cost_steps);
            ] );
      ]
    [
      {
        title = "ABL-SEARCH systematic vs. randomized inference";
        key = "rows";
        rows;
        note =
          "\n\nwall_s is the min of the trials. jobs_effective is the domain\n\
           count after the pool's cores cap (capped rows were clamped to the\n\
           cores). The DFS runs in order at any jobs. Outcomes (success,\n\
           attempts, pruned, steps) are identical at every jobs value by\n\
           construction.\n\n\
           Systematic schedule enumeration is complete and finds the racy\n\
           counter's lost update without luck — but its frontier grows\n\
           exponentially with threads and steps, so on miniht it burns the\n\
           whole budget permuting the earliest scheduling decisions (the\n\
           'pruned' column counts probes cut at a clamped decision).\n\
           Seeded random restarts sample the space instead and land on a\n\
           failing interleaving quickly. This is why the replayers use\n\
           restarts as their default inference engine, and why the paper\n\
           warns that ultra-relaxed models can need 'prohibitively large\n\
           post-factum analysis times'.\n";
      };
      oracle_table ();
    ]

(* ------------------------------------------------------------------ *)
(* SANITY: the CI tripwire behind the perf-sanity alias. On smoke
   budgets, random restarts at jobs=4 under the pool's fixed policy
   (cores cap on) must stay within 2x of sequential wall-clock and
   byte-identical in outcome. Like every replay driver, the search gets
   the recorded run's base_steps as its attempt-cost estimate, so the
   min-work heuristic decides where the attempts run exactly as it does
   in the product; on a small box the cores cap clamps jobs, on a big
   one the tripwire catches a scheduler regression. Exits 1 on
   violation. *)

let sanity () =
  let open Ddet_replay in
  let bud = budget 60 2_000 in
  let same (a : Search.outcome) (b : Search.outcome) =
    a.Search.result = b.Search.result
    && a.Search.partial = b.Search.partial
    && a.Search.stats.Search.attempts = b.Search.stats.Search.attempts
    && a.Search.stats.Search.total_steps = b.Search.stats.Search.total_steps
    && a.Search.stats.Search.pruned = b.Search.stats.Search.pruned
  in
  let results =
    List.map
      (fun (workload, labeled, spec, _) ->
        let log, accept = failing_log workload labeled spec in
        let run j =
          Search.random_restarts ~jobs:j ~est_attempt_steps:log.Log.base_steps
            bud
            ~make:(fun ~attempt -> (Mvm.World.random ~seed:attempt, None))
            ~spec ~accept labeled
        in
        let seq, seq_s = min_time ~trials:3 (fun () -> run 1) in
        let par, par_s = min_time ~trials:3 (fun () -> run 4) in
        let parity = same seq par in
        (* 10ms absolute slack: sub-millisecond walls are all noise *)
        let ok = parity && par_s <= (2.0 *. seq_s) +. 0.010 in
        ( ok,
          [
            ("workload", S workload);
            ("engine", S "restarts");
            ("seq_s", F (4, seq_s));
            ("jobs4_s", F (4, par_s));
            ("ratio", F (2, par_s /. seq_s));
            ("parity", B parity);
            ("verdict", S (if ok then "ok" else "VIOLATION"));
          ] ))
      (search_workloads ())
  in
  print_table ~title:"PERF-SANITY restarts at jobs=4 vs. sequential"
    (List.map snd results);
  let violations = List.length (List.filter (fun (ok, _) -> not ok) results) in
  if violations > 0 then begin
    Printf.eprintf "perf-sanity: %d violation(s)\n" violations;
    exit 1
  end;
  Printf.printf "perf-sanity: ok (cores: %d)\n"
    (Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* CRASH: checkpoint overhead and resume cost. Measures the wall-clock
   tax of ticking a checkpoint sink at several intervals, then simulates
   a kill at half the search (truncated budget + flushed frontier — the
   same file a SIGKILL leaves behind), resumes, and checks the resumed
   outcome is identical to the uninterrupted run's, reached by judging
   only the attempts after the kill. *)

let crash_bench ~json () =
  let open Ddet_replay in
  let open Mvm in
  (* the outcome, not the run's buffers: [=] on results would also
     compare the trace's chunks, slots past its length included *)
  let same (a : Search.outcome) (b : Search.outcome) =
    let run (r : Interp.result) =
      ( r.Interp.status, r.Interp.steps, Trace.events r.Interp.trace,
        r.Interp.outputs, r.Interp.failure )
    in
    let partial (p : Search.partial) =
      (p.Search.closeness, p.Search.attempt, run p.Search.best)
    in
    a.Search.stats = b.Search.stats
    && Option.map run a.Search.result = Option.map run b.Search.result
    && Option.map partial a.Search.partial = Option.map partial b.Search.partial
  in
  let rows =
    List.concat_map
      (fun (workload, labeled, spec, bud) ->
        let _, accept = failing_log workload labeled spec in
        (* attempts judged so far: a resume that drops its frontier
           re-judges the attempts before the kill *)
        let judged = ref 0 in
        let accept r =
          incr judged;
          accept r
        in
        let engines :
            (string
            * (?checkpoint:Checkpoint.sink ->
               ?resume:Checkpoint.t ->
               Search.budget ->
               Search.outcome))
            list =
          [
            ( "restarts",
              fun ?checkpoint ?resume b ->
                Search.random_restarts ?checkpoint ?resume b
                  ~make:(fun ~attempt -> (World.random ~seed:attempt, None))
                  ~spec ~accept labeled );
            ( "dfs",
              fun ?checkpoint ?resume b ->
                Search.dfs_schedules ?checkpoint ?resume b ~spec ~accept
                  labeled );
          ]
        in
        List.map
          (fun
            ( engine,
              (run :
                ?checkpoint:Checkpoint.sink ->
                ?resume:Checkpoint.t ->
                Search.budget ->
                Search.outcome) )
          ->
            let plain, plain_s = time (fun () -> run bud) in
            with_temp_base ".ckpt" @@ fun ckpt_file ->
            let timed_sink every =
              snd
                (time (fun () ->
                     run ~checkpoint:(Checkpoint.sink ~every ckpt_file) bud))
            in
            let ckpt1_s = timed_sink 1 in
            let ckpt32_s = timed_sink 32 in
            (* simulated kill: a truncated budget that exhausts and
               flushes its frontier — exactly the file the periodic sink
               leaves after a SIGKILL at that point. Kill strictly before
               the hit (or at half the attempts when the search never
               hits); a search that hits on attempt 1 has no mid-flight
               frontier to crash at, so skip the kill for it. *)
            let kill_at =
              if plain.Search.stats.Search.success then
                plain.Search.stats.Search.attempts - 1
              else plain.Search.stats.Search.attempts / 2
            in
            let killed_s, resume_s, parity =
              if kill_at < 1 then (0., 0., true)
              else begin
                let _, killed_s =
                  time (fun () ->
                      run
                        ~checkpoint:(Checkpoint.sink ~every:1 ckpt_file)
                        { bud with Search.max_attempts = kill_at })
                in
                let c =
                  match Checkpoint.load ckpt_file with
                  | Ok c -> c
                  | Error e -> invalid_arg ("bench checkpoint: " ^ e)
                in
                judged := 0;
                let resumed, resume_s = time (fun () -> run ~resume:c bud) in
                ( killed_s,
                  resume_s,
                  same plain resumed
                  && !judged = plain.Search.stats.Search.attempts - kill_at )
              end
            in
            [
              ("workload", S workload);
              ("engine", S engine);
              ("attempts", I plain.Search.stats.Search.attempts);
              ("plain_s", W (F (6, plain_s)));
              ("ckpt_every1_s", W (F (6, ckpt1_s)));
              ("ckpt_every32_s", W (F (6, ckpt32_s)));
              ("killed_s", W (F (6, killed_s)));
              ("resume_s", W (F (6, resume_s)));
              ("parity", B parity);
            ])
          engines)
      (search_workloads ())
  in
  report ~json ~trials:1 "crash"
    [
      {
        title = "CRASH checkpoint overhead and resume";
        key = "rows";
        rows;
        note =
          "\n\nckpt_everyN_s: the same search as plain_s with a checkpoint\n\
           sink that writes every Nth judged attempt. killed_s/resume_s: the\n\
           search is cut at half its attempts (truncated budget flushing its\n\
           frontier - byte-identical to the file a SIGKILL leaves), then\n\
           resumed to completion; their sum against plain_s is the\n\
           wall-clock tax of crashing once. parity: the resumed outcome\n\
           (search stats; status, steps, events, outputs and failure of the\n\
           result and the partial) equals the uninterrupted run's, and the\n\
           resumed run judged only the attempts after the kill.\n";
      };
    ]

(* ------------------------------------------------------------------ *)
(* GOVERNOR: the overhead SLO in action. Record the failing miniht run
   under several budgets, with the ungoverned recording as control, and
   check the acceptance criterion end to end: measured overhead within
   budget AND the original failure still reproducing from the governed
   log, with the honest DF floor reported per degraded window. *)

let governor_bench ~json () =
  let miniht = Miniht.app () in
  let seed = 1 (* the seed scan's first failing miniht seed *) in
  let models = [ Model.Perfect; Model.Sync ] in
  let budgets = [ 1.2; 1.3; 1.5; 2.0 ] in
  let record ?budget:overhead_budget model =
    let config = { Config.default with Config.overhead_budget } in
    let prepared = Session.prepare ~config model miniht in
    let original, log = Session.record prepared ~seed in
    (prepared, original, log)
  in
  let overhead = Cost_model.overhead Cost_model.default in
  let rows =
    List.concat_map
      (fun model ->
        let _, _, control_log = record model in
        List.map
          (fun b ->
            let prepared, original, log = record ~budget:b model in
            let outcome = Session.replay prepared log in
            let a = Session.assess prepared ~original ~log outcome in
            let reproduced =
              match outcome.Ddet_replay.Replayer.result with
              | Some r -> Ddet_replay.Constraints.failure_matches log r
              | None -> false
            in
            [
              ("model", S (Model.name model));
              ("budget", F (2, b));
              ("control_overhead", F (4, overhead control_log));
              ("governed_overhead", F (4, overhead log));
              ("within_budget", B (overhead log <= b +. 1e-9));
              ("governed_windows", I a.Ddet_metrics.Utility.governed_windows);
              ("entries", I (Log.entry_count log));
              ("control_entries", I (Log.entry_count control_log));
              ("reproduced", B reproduced);
              ("df", F (4, a.Ddet_metrics.Utility.df));
              ( "df_floor",
                F (4, Option.value ~default:0. a.Ddet_metrics.Utility.df_floor)
              );
              ("attempts", I outcome.Ddet_replay.Replayer.attempts);
            ])
          budgets)
      models
  in
  report ~json ~trials:1 "governor"
    [
      {
        title = "GOVERNOR overhead SLO";
        key = "rows";
        rows;
        note =
          "\n\ncontrol: the same recording with no budget. within_budget: the\n\
           measured Cost_model overhead of the governed log lands inside the\n\
           SLO. reproduced: the governed log's search replay reproduces the\n\
           original failure. df is the measured fidelity, with the honest\n\
           1/n floor the degraded windows impose.\n";
      };
    ]

(* ------------------------------------------------------------------ *)
(* The apps with node maps, each recorded under perfect determinism and
   a node-granular fault plan at its first failing seed under 20,000
   steps: the distributed evidence static and dist replay from. *)

let dist_recordings () =
  List.map
    (fun ((app : App.t), plan) ->
      let plan =
        match Mvm.Fault.of_string plan with Ok p -> p | Error e -> invalid_arg e
      in
      let prepared = Session.prepare Model.Perfect app in
      let rec scan seed =
        if seed > 100 then invalid_arg ("no failing seed for " ^ app.App.name)
        else
          let original, log, causal =
            Session.record_dist ~faults:plan prepared ~seed
          in
          if
            original.Mvm.Interp.failure <> None
            && original.Mvm.Interp.steps < 20_000
          then (log, causal)
          else scan (seed + 1)
      in
      let log, causal = scan 1 in
      (app, prepared, log, causal))
    [
      (Msg_server.app (), "seed=5,partition:server+p0|p1:10-80");
      ( Cloudstore.app (),
        "seed=2,partition:coord+primary+client0+client1|secondary:50-400" );
    ]

(* ------------------------------------------------------------------ *)
(* STATIC: cost and payoff of the static analysis suite. Three
   measurements on the ABL-RACE workloads: (1) analysis wall-time per
   program — the whole suite runs before any execution, so this is its
   entire cost; (2) recording overhead of the static suspect-site
   trigger vs the sampling race-detector trigger vs full value
   determinism, each with a replay-reproduction check on the failing
   workloads; (3) failure-determinism search attempts with and without
   the static site-priority hint. *)

let static_bench ~json () =
  let open Ddet_replay in
  let open Ddet_analysis in
  let open Ddet_static in
  let open Mvm in
  let failing_seed app = fst (Experiment.find_seed (app, None)) in
  let msg = Msg_server.app () and mini = Miniht.app () in
  (* 1: analysis wall-time per program *)
  let reps = 100 in
  let ms_per_analysis ?nodes labeled =
    let _, wall =
      time (fun () ->
          for _ = 1 to reps do
            ignore (Static_report.analyze ?nodes labeled)
          done)
    in
    W (F (4, wall *. 1e3 /. float_of_int reps))
  in
  let analysis =
    List.map
      (fun (name, labeled) ->
        let report = Static_report.analyze labeled in
        let lints = Static_report.lints report in
        let errors = List.length (Lint.errors lints) in
        [
          ("program", S name);
          ("ms_per_analysis", ms_per_analysis labeled);
          ("race_candidates", I (List.length (Static_report.races report)));
          ("suspect_sids", I (List.length (Static_report.suspect_sids report)));
          ("lint_errors", I errors);
          ("lint_warnings", I (List.length lints - errors));
        ])
      ([ ("locked-counter", Experiment.locked_counter) ]
      @ List.map
          (fun (a : App.t) -> (a.App.name, a.App.labeled))
          [ Adder.app (); Bufover.app (); msg; mini; Cloudstore.app () ]
      @ List.init 3 (fun s ->
            ( Printf.sprintf "proggen-%d" s,
              Proggen.generate Proggen.default (Prng.create s) )))
  in
  (* 2: ABL-RACE recording overhead, with reproduction checks *)
  let replay_budget = budget 200 20_000 in
  let overhead =
    List.concat_map
      (fun (workload, labeled, spec, seed, failing) ->
        let report = Static_report.analyze labeled in
        let recorders =
          [
            ( "rcse+static-sites",
              (fun () ->
                Recorder.rcse (Static_report.site_selector report)),
              `Rcse );
            ( "rcse+static-trigger",
              (fun () ->
                Recorder.rcse (Static_report.trigger_selector report)),
              `Rcse );
            ( "rcse+sampling-trigger",
              (fun () ->
                Recorder.rcse
                  (Trigger.selector ~sticky:true
                     [
                       Trigger.of_race_detector
                         (Race_detector.create Race_detector.default_config);
                     ])),
              `Rcse );
            ("value-det", (fun () -> Recorder.value), `Value);
          ]
        in
        List.map
          (fun (recorder, create, kind) ->
            let original, log =
              Recorder.record (create ()) labeled ~spec
                ~world:(World.random ~seed)
            in
            let reproduces =
              if not failing then "-"
              else begin
                assert (original.Interp.failure <> None);
                let o =
                  match kind with
                  | `Rcse ->
                    Replayer.rcse ~budget:replay_budget ~strict:false labeled
                      ~spec log
                  | `Value ->
                    Replayer.value_det ~budget:replay_budget labeled ~spec log
                in
                if o.Replayer.result <> None then "yes" else "NO"
              end
            in
            [
              ("workload", S workload);
              ("recorder", S recorder);
              ("overhead", F (4, Cost_model.(overhead default log)));
              ("entries", I (Log.entry_count log));
              ("payload_bytes", I (Log.payload_bytes log));
              ("reproduces", S reproduces);
            ])
          recorders)
      [
        ("locked-counter", Experiment.locked_counter, Spec.accept_all, 5, false);
        ("msg_server", msg.App.labeled, msg.App.spec, failing_seed msg, true);
        ("miniht", mini.App.labeled, mini.App.spec, failing_seed mini, true);
      ]
  in
  (* 3: search attempts saved by the site-priority hint *)
  let search_budget = budget 500 20_000 in
  let priority_search =
    List.map
      (fun ((app : App.t), seed) ->
        let report = Static_report.analyze app.App.labeled in
        let priority = { Search.sids = Static_report.suspect_sids report } in
        let _, log =
          Recorder.record Recorder.failure app.App.labeled
            ~spec:app.App.spec ~world:(World.random ~seed)
        in
        let search ?priority () =
          Replayer.failure_det ~budget:search_budget ?priority app.App.labeled
            ~spec:app.App.spec log
        in
        let uniform = search () in
        let hinted = search ~priority () in
        [
          ("workload", S app.App.name);
          ("suspect_sids", I (List.length priority.Search.sids));
          ("uniform_success", B (uniform.Replayer.result <> None));
          ("uniform_attempts", I uniform.Replayer.attempts);
          ("hinted_success", B (hinted.Replayer.result <> None));
          ("hinted_attempts", I hinted.Replayer.attempts);
        ])
      [ (msg, failing_seed msg); (mini, failing_seed mini) ]
  in
  (* 4: the cross-node layer — message-flow analysis cost on the
     node-mapped apps, and lost-node partial-evidence search with vs
     without static steering (same stitched evidence, same budget) *)
  let recordings = dist_recordings () in
  let msgflow =
    List.map
      (fun ((a : App.t), _, _, _) ->
        let nodes = Option.get a.App.nodes in
        let report = Static_report.analyze ~nodes a.App.labeled in
        let flow = Option.get (Static_report.msgflow report) in
        let comm_findings =
          List.filter
            (fun (f : Lint.finding) ->
              String.starts_with ~prefix:"comm-" f.Lint.rule)
            (Static_report.lints report)
        in
        [
          ("app", S a.App.name);
          ("ms_per_analysis", ms_per_analysis ~nodes a.App.labeled);
          ("channels", I (List.length (Msgflow.channels flow)));
          ("cross_edges", I (List.length (Msgflow.cross_edges flow)));
          ("comm_findings", I (List.length comm_findings));
        ])
      recordings
  in
  let steer_budget = budget 400 50_000 in
  let store = Store.local () in
  let steered_search =
    List.concat_map
      (fun ((app : App.t), prepared, log, causal) ->
        let report = Option.get (Session.static_report prepared) in
        with_temp_base ".steer" @@ fun base ->
        ignore (Sharded_log.save_via store ~base ~causal log);
        List.map
          (fun node ->
            let loaded =
              match Sharded_log.load ~lose:[ node ] base with
              | Ok l -> l
              | Error e -> invalid_arg e
            in
            let st = Stitch.stitch loaded in
            let run ?steer () =
              Replayer.stitched ~budget:steer_budget ?steer app.App.labeled
                ~spec:app.App.spec st
            in
            let plain = run () in
            let steered =
              run ~steer:(Static_report.steer report ~lost:st.Stitch.lost) ()
            in
            [
              ("app", S app.App.name);
              ("lost", S node);
              ("uninformed_success", B (plain.Replayer.result <> None));
              ("uninformed_attempts", I plain.Replayer.attempts);
              ("steered_success", B (steered.Replayer.result <> None));
              ("steered_attempts", I steered.Replayer.attempts);
            ])
          (Mvm.Node.nodes (Option.get app.App.nodes)))
      recordings
  in
  report ~json ~trials:1 "static"
    [
      { title = "STATIC analysis wall-time"; key = "analysis"; rows = analysis;
        note = "" };
      {
        title = "STATIC ABL-RACE recording overhead";
        key = "overhead";
        rows = overhead;
        note =
          "\n\nThe static selectors need no runtime detector: suspect sites come\n\
           from the lockset analysis, so the race-free workload records (and\n\
           pays) nothing at all. The site-granular selector logs interleaving\n\
           only at the suspect accesses themselves — enough to pin the racing\n\
           order — where the sticky trigger records everything from the first\n\
           suspect access onward and value determinism pays for the whole\n\
           data plane everywhere.\n";
      };
      { title = "STATIC site-priority search"; key = "priority_search";
        rows = priority_search; note = "" };
      { title = "STATIC cross-node analysis wall-time"; key = "msgflow";
        rows = msgflow; note = "" };
      {
        title = "STATIC steered lost-node search";
        key = "steered_search";
        rows = steered_search;
        note =
          "\n\nSame stitched partial evidence and search budget; the steered\n\
           runs bias the lost nodes' free decision points toward the sites\n\
           that statically reach a survivor (and pin inputs of threads that\n\
           provably reach none).\n";
      };
    ]

(* ------------------------------------------------------------------ *)
(* DIST: the cost of evidence. Three measurements: (1) on the apps with
   node maps, write overhead of per-node sharding (N shard writes + the
   causal manifest) vs one monolithic atomic write of the same log; (2)
   partial-evidence replay cost as a function of how many node shards
   were lost — attempts, inference steps and wall-clock, from complete
   evidence (the model's own replay) down to every surviving subset the
   stitcher can be handed; (3) the monolithic codec's cost per byte,
   encode ([Log_io.to_string]) and decode ([Log_io.of_string], CRC
   check included), on the recording of one fixed failing seed per app
   under each model the perfbench mixes replay. *)

(* each row's encode and decode, timed alternately [codec_reps] times:
   the medians resist the shared host's noise *)
let codec_reps = 150

let codec_rows () =
  List.concat_map
    (fun ((app : App.t), seed, models) ->
      List.map
        (fun name ->
          let model =
            match Model.of_string name with Ok m -> m | Error e -> invalid_arg e
          in
          let _, log = Session.record (Session.prepare model app) ~seed in
          let bytes = String.length (Log_io.to_string log) in
          if Log_io.of_string (Log_io.to_string log) <> Ok log then
            invalid_arg ("codec: the log does not round-trip: " ^ app.App.name);
          let encode = ref [] and decode = ref [] in
          for _ = 1 to codec_reps do
            let s, e = time (fun () -> Log_io.to_string log) in
            let _, d = time (fun () -> Log_io.of_string s) in
            encode := e :: !encode;
            decode := d :: !decode
          done;
          let ns_per_byte xs = quantile xs 0.5 *. 1e9 /. float_of_int bytes in
          [
            ("app", S app.App.name);
            ("model", S name);
            ("seed", I seed);
            ("bytes", I bytes);
            ("entries", I (List.length log.Log.entries));
            ("encode_ns_per_byte", W (F (2, ns_per_byte !encode)));
            ("decode_ns_per_byte", W (F (2, ns_per_byte !decode)));
          ])
        models)
    [
      (Miniht.app (), 1, [ "perfect"; "value"; "rcse-code"; "sync"; "rcse" ]);
      (Cloudstore.app (), 9, [ "perfect"; "value"; "rcse-code"; "sync"; "rcse" ]);
      (Msg_server.app (), 1, [ "perfect"; "value" ]);
    ]

let dist_bench ~json () =
  let open Ddet_replay in
  let reps = 50 in
  let trials = 3 in
  let bud = budget 400 50_000 in
  let store = Store.local () in
  let results =
    List.map
      (fun ((app : App.t), prepared, log, causal) ->
        with_temp_base ".dist" @@ fun base ->
        (* write overhead: monolithic atomic write vs the full shard set *)
        let mono = Log_io.to_string log in
        let per_write f =
          let _, s =
            min_time ~trials (fun () ->
                for _ = 1 to reps do
                  f ()
                done)
          in
          s /. float_of_int reps
        in
        let mono_s =
          per_write (fun () ->
              ignore (Store.atomic_write store (base ^ ".log") mono))
        in
        let shard_s =
          per_write (fun () ->
              ignore (Sharded_log.save_via store ~base ~causal log))
        in
        let file_size p =
          if Sys.file_exists p then (Unix.stat p).Unix.st_size else 0
        in
        let nodes = Mvm.Node.nodes (Option.get app.App.nodes) in
        let write =
          [
            ("app", S app.App.name);
            ("mono_bytes", I (String.length mono));
            ( "shard_bytes",
              I
                (file_size (base ^ ".causal")
                + List.fold_left
                    (fun acc n -> acc + file_size (base ^ "." ^ n ^ ".shard"))
                    0 nodes) );
            ("mono_write_s", W (F (8, mono_s)));
            ("shard_write_s", W (F (8, shard_s)));
            ("write_ratio", W (F (4, shard_s /. mono_s)));
          ]
        in
        (* replay cost by lost-node count: none, each singleton, and the
           heaviest double loss (the first two nodes) *)
        let lose_sets =
          ([] :: List.map (fun n -> [ n ]) nodes)
          @ match nodes with a :: b :: _ -> [ [ a; b ] ] | _ -> []
        in
        let replay =
          List.map
            (fun lose ->
              let loaded =
                match Sharded_log.load ~lose base with
                | Ok l -> l
                | Error e -> invalid_arg e
              in
              let st = Stitch.stitch loaded in
              let o, wall_s =
                time (fun () -> Session.replay_stitched ~budget:bud prepared st)
              in
              [
                ("app", S app.App.name);
                ("lost", L lose);
                ("lost_count", I (List.length lose));
                ("reproduced", B (o.Replayer.result <> None));
                ("attempts", I o.Replayer.attempts);
                ("steps", I o.Replayer.total_steps);
                ("wall_s", W (F (6, wall_s)));
              ])
            lose_sets
        in
        (write, replay))
      (dist_recordings ())
  in
  report ~json ~trials "dist"
    [
      {
        title = "DIST shard-write overhead";
        key = "write";
        rows = List.map fst results;
        note =
          "\n\nOne monolithic atomic write vs one ddet-log shard per node plus\n\
           the causal manifest, same recording, through the same store. The\n\
           byte delta is the replicated header and per-line CRCs; the time\n\
           ratio is the price of independently losable evidence.\n";
      };
      {
        title = "DIST partial-evidence replay cost";
        key = "replay";
        rows = List.concat_map snd results;
        note =
          "\n\nlost '-' is complete evidence (the model's own replay); every\n\
           other row drops those nodes' shards and pays partial-evidence\n\
           search for what died with them.\n";
      };
      {
        title = "DIST monolithic codec cost per byte";
        key = "codec";
        rows = codec_rows ();
        note =
          "\n\nOne recording per row, of a fixed failing seed; the rates are\n\
           medians over alternating encode/decode reps of that log.\n";
      };
    ]

(* ------------------------------------------------------------------ *)
(* OBS: the tracer's own cost. The same session pipeline runs with the
   ambient tracer absent and installed; the preallocated ring and the
   one-ref-read disabled path exist precisely so the enabled figure
   stays within 5% of wall time — the number this section measures.
   Blocks of [reps] sessions run in [pairs] untraced/traced pairs, the
   pair's order alternating so clock noise and GC phase hit both
   variants alike, and each pair gives one paired overhead (on/off - 1).
   On a shared host one pair's overhead swings by more than the budget,
   so a row reports the median and the quartiles of its pairs, and the
   verdict says whether they resolve the budget: over it only when the
   lower quartile exceeds it, unresolved when the quartiles straddle
   it. *)

let obs_bench ~json () =
  let reps = 100 in
  let pairs = 12 in
  let overhead_budget = 0.05 in
  let config = { Config.default with Config.budget = budget 40 10_000 } in
  let failing_seed (app : App.t) =
    let rec scan seed =
      if seed > 200 then invalid_arg ("no failing seed for " ^ app.App.name)
      else
        let r = App.production_run app ~seed in
        if r.Mvm.Interp.failure <> None && r.Mvm.Interp.steps < 10_000 then seed
        else scan (seed + 1)
    in
    scan 1
  in
  let session prepared seed () =
    for _ = 1 to reps do
      let original, log = Session.record prepared ~seed in
      let outcome = Session.replay prepared log in
      ignore (Session.assess prepared ~original ~log outcome)
    done
  in
  let verdict q1 q3 =
    if q1 > overhead_budget then "over budget"
    else if q3 > overhead_budget then "unresolved"
    else "within"
  in
  let measured =
    List.map
      (fun ((app : App.t), model) ->
        let prepared = Session.prepare ~config model app in
        let run = session prepared (failing_seed app) in
        (* warm both paths once: training runs, lazy plane maps *)
        run ();
        let t = Ddet_obs.Tracer.create () in
        let off () =
          Ddet_obs.Tracer.set_current None;
          snd (time run)
        and on () = snd (time (fun () -> Ddet_obs.Tracer.with_current t run)) in
        let blocks =
          List.init pairs (fun i ->
              if i land 1 = 0 then
                let o = off () in
                (o, on ())
              else
                let n = on () in
                (off (), n))
        in
        let overheads = List.map (fun (o, n) -> (n /. o) -. 1.) blocks in
        let q1 = quantile overheads 0.25 and q3 = quantile overheads 0.75 in
        let median = quantile overheads 0.5 in
        ( (median, q1, q3),
          [
            ( "workload",
              S (Printf.sprintf "%s/%s" app.App.name (Model.name model)) );
            ("reps", I reps);
            ("pairs", I pairs);
            ("off_s", W (F (6, quantile (List.map fst blocks) 0.5)));
            ("on_s", W (F (6, quantile (List.map snd blocks) 0.5)));
            ("overhead", W (F (4, median)));
            ("overhead_q1", W (F (4, q1)));
            ("overhead_q3", W (F (4, q3)));
            ("verdict", W (S (verdict q1 q3)));
            ("events", I (Ddet_obs.Tracer.length t));
            ("dropped", I (Ddet_obs.Tracer.dropped t));
          ] ))
      [
        (* deterministic oracle replay: recording dominates, spans and
           the record driver's per-entry tally are the cost *)
        (Msg_server.app (), Model.Perfect);
        (* failure-directed search: counter bumps on the hot attempt loop *)
        (Miniht.app (), Model.Failure_det);
      ]
  in
  let worst =
    List.fold_left (fun acc ((m, _, _), _) -> Float.max acc m) neg_infinity measured
  in
  let verdicts = List.map (fun ((_, q1, q3), _) -> verdict q1 q3) measured in
  let overall =
    if List.mem "over budget" verdicts then "over budget"
    else if List.mem "unresolved" verdicts then "unresolved"
    else "within"
  in
  report ~json ~trials:pairs "obs"
    ~fields:
      [
        ("worst_overhead", W (F (4, worst)));
        ("budget", F (2, overhead_budget));
        ("verdict", W (S overall));
      ]
    [
      {
        title = "OBS tracer overhead";
        key = "rows";
        rows = List.map snd measured;
        note =
          Printf.sprintf
            "\n\n%d untraced/traced pairs of %d-session blocks, alternating\n\
             which runs first. off_s/on_s are the median block times;\n\
             overhead is the median of the pairs' on/off - 1, and q1/q3 its\n\
             quartiles. A row is over the %.0f%% budget only when q1 exceeds\n\
             it, and unresolved when q1 and q3 straddle it.%s\n"
            pairs reps (overhead_budget *. 100.)
            (match overall with
            | "over budget" -> "\n** OVER BUDGET **"
            | "unresolved" -> "\n(unresolved: the quartiles straddle the budget)"
            | _ -> "");
      };
    ]

(* ------------------------------------------------------------------ *)

let () =
  let rec parse (cmd, json, jobs) = function
    | [] -> (cmd, json, jobs)
    | "--json" :: rest -> parse (cmd, true, jobs) rest
    | ("--jobs" | "-j") :: n :: rest -> parse (cmd, json, int_of_string n) rest
    | arg :: rest when cmd = None -> parse (Some arg, json, jobs) rest
    | arg :: _ ->
      Printf.eprintf "unexpected argument %S\n" arg;
      exit 2
  in
  let cmd, json, jobs =
    parse (None, false, 1) (List.tl (Array.to_list Sys.argv))
  in
  let cmd = Option.value ~default:"all" cmd in
  match cmd with
  | "paper" -> paper ~json ()
  | "search" -> search_bench ~jobs ~json ()
  | "crash" -> crash_bench ~json ()
  | "sanity" -> sanity ()
  | "governor" -> governor_bench ~json ()
  | "dist" -> dist_bench ~json ()
  | "obs" -> obs_bench ~json ()
  | "static" -> static_bench ~json ()
  | "micro" -> micro ~json ()
  | "all" ->
    paper ~json ();
    search_bench ~jobs ~json ();
    micro ~json ()
  | other ->
    Printf.eprintf
      "unknown command %S (expected paper|search|sanity|crash|governor|static|dist|obs|micro|all)\n"
      other;
    exit 2
