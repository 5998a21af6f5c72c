(* End-to-end check of the ddreplay exit-code contract by forking the
   real binary: 0 reproduced, 3 degraded to a partial candidate, 4
   salvaged-log damage, 5 deadline/budget exhausted — plus the
   checkpoint/resume round-trip through the CLI flags.

   Usage: test_cli.exe <path-to-ddreplay.exe> (wired by the
   cli-exit-codes rule in test/dune). *)

open Ddet
open Ddet_apps

let ddreplay = ref "ddreplay"

let run fmt =
  Printf.ksprintf
    (fun args ->
      Sys.command
        (Printf.sprintf "%s %s > /dev/null 2>&1" (Filename.quote !ddreplay)
           args))
    fmt

let check = Alcotest.(check int)

(* An app + seed whose failure-determinism replay reproduces but needs
   at least two attempts under the CLI's default budget: truncating the
   budget then leaves a partial candidate (exit 3), and one fewer
   attempt than the hit is a meaningful kill point for --resume. The
   probe runs the same Session code path the CLI runs, so the attempt
   count transfers exactly. *)
let scenario =
  lazy
    (let budget = Config.default.Config.budget in
     let try_app (app : App.t) =
       match Workload.find_failing_seed app with
       | None -> None
       | Some (seed, _) ->
         let prepared = Session.prepare Model.Failure_det app in
         let _, log = Session.record prepared ~seed in
         let o = Session.replay ~budget prepared log in
         if
           o.Ddet_replay.Replayer.result <> None
           && o.Ddet_replay.Replayer.attempts >= 2
         then Some (app, seed, o.Ddet_replay.Replayer.attempts)
         else None
     in
     match
       List.find_map try_app [ Miniht.app (); Adder.app (); Msg_server.app () ]
     with
     | Some s -> s
     | None -> Alcotest.fail "no CLI scenario with a multi-attempt replay")

let record_tmp (app : App.t) seed =
  let log = Filename.temp_file "ddet_cli" ".log" in
  check "record saves the log" 0
    (run "record -a %s -m failure -s %d -o %s" app.App.name seed
       (Filename.quote log));
  log

let test_reproduced () =
  let app, seed, _ = Lazy.force scenario in
  let log = record_tmp app seed in
  check "replay reproduces: exit 0" 0
    (run "replay -a %s -m failure -i %s" app.App.name (Filename.quote log));
  Sys.remove log

let test_partial () =
  let app, seed, attempts = Lazy.force scenario in
  let log = record_tmp app seed in
  check "truncated budget degrades to partial: exit 3" 3
    (run "replay -a %s -m failure -i %s --attempts %d" app.App.name
       (Filename.quote log) (attempts - 1));
  Sys.remove log

let test_salvaged () =
  let app, seed, _ = Lazy.force scenario in
  let log = record_tmp app seed in
  let whole = In_channel.with_open_bin log In_channel.input_all in
  let oc = open_out_bin log in
  output_string oc (String.sub whole 0 (String.length whole - 12));
  close_out oc;
  check "strict load refuses the damaged log: exit 1" 1
    (run "replay -a %s -m failure -i %s" app.App.name (Filename.quote log));
  check "salvaged replay reports damage: exit 4" 4
    (run "replay -a %s -m failure -i %s --salvage" app.App.name
       (Filename.quote log));
  Sys.remove log

let test_deadline () =
  let app, seed, _ = Lazy.force scenario in
  let log = record_tmp app seed in
  check "zero deadline, nothing to show: exit 5" 5
    (run "replay -a %s -m failure -i %s --deadline 0" app.App.name
       (Filename.quote log));
  Sys.remove log

let test_find_exhausted () =
  check "seed scan exhausts its range: exit 5" 5
    (run "find -a adder --cause no-such-cause")

let test_checkpoint_resume () =
  let app, seed, attempts = Lazy.force scenario in
  let log = record_tmp app seed in
  let ckpt = Filename.temp_file "ddet_cli" ".ckpt" in
  check "killed search leaves a checkpoint: exit 3" 3
    (run "replay -a %s -m failure -i %s --attempts %d --checkpoint %s"
       app.App.name (Filename.quote log) (attempts - 1) (Filename.quote ckpt));
  check "resumed search completes the hit: exit 0" 0
    (run "replay -a %s -m failure -i %s --resume %s" app.App.name
       (Filename.quote log) (Filename.quote ckpt));
  check "a torn resume file is refused: exit 1" 1
    (let oc = open_out_bin ckpt in
     output_string oc "ddet-ckpt v1\ngarbage\n";
     close_out oc;
     run "replay -a %s -m failure -i %s --resume %s" app.App.name
       (Filename.quote log) (Filename.quote ckpt));
  Sys.remove ckpt;
  Sys.remove log

(* the header, the manifest and every segment present, walking indices
   as the segmented save's clean-up does; a segment a test replaced by a
   directory goes too *)
let rm_segmented base =
  let rm p = if Sys.is_directory p then Sys.rmdir p else Sys.remove p in
  List.iter
    (fun p -> if Sys.file_exists p then rm p)
    [ base ^ ".header"; base ^ ".manifest" ];
  let rec segments i =
    let p = Printf.sprintf "%s.%04d.seg" base i in
    if Sys.file_exists p then begin
      rm p;
      segments (i + 1)
    end
  in
  segments 0

let test_segmented_roundtrip () =
  let app, seed, _ = Lazy.force scenario in
  let base = Filename.temp_file "ddet_cli" ".seg" in
  Sys.remove base;
  check "segmented record" 0
    (run "record -a %s -m failure -s %d -o %s --segments 4" app.App.name seed
       (Filename.quote base));
  check "replay auto-detects the segment set: exit 0" 0
    (run "replay -a %s -m failure -i %s" app.App.name (Filename.quote base));
  rm_segmented base

let run_out fmt =
  Printf.ksprintf
    (fun args ->
      let out = Filename.temp_file "ddet_cli" ".out" in
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2>&1" (Filename.quote !ddreplay) args
             (Filename.quote out))
      in
      let ic = open_in_bin out in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Sys.remove out;
      (code, text))
    fmt

let contains text needle =
  let n = String.length needle and h = String.length text in
  let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
  go 0

(* A segmented save under an injected store prints its fault trace, op
   by op: how many operations reached the store, the bytes written and
   lost, and the operation that failed for good *)
let record_segmented_faulty plan =
  let base = Filename.temp_file "ddet_cli" ".seg" in
  Sys.remove base;
  let code, text =
    run_out "record -a miniht -m perfect -s 3 --segments 8 -o %s --io-faults %s"
      (Filename.quote base) (Filename.quote plan)
  in
  (base, code, text)

(* Four transient blips on earlier writes are retried (each retry is
   one more op), so the tear at op 15 lands on segment 4's write: ops
   0-2 are the header's write, fsync and rename, then each segment is a
   write and an fsync. Without the CLI's retrying store the first blip
   would end the save on another file. *)
let test_segmented_torn_write () =
  let base, code, text =
    record_segmented_faulty "seed=8,flaky:0.3,torn:15:0.5"
  in
  check "torn segment write: exit 4" 4 code;
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "prints %S" line) true
        (contains text line))
    [
      "io-faults: 16 ops, 847 bytes written, 90 lost to short writes, 5 \
       fault(s) injected (4 transient), 0.0 ms stalled";
      Printf.sprintf
        "save failed: write(%s.0004.seg): EIO injected torn write [permanent]"
        base;
    ];
  rm_segmented base

let test_segmented_failed_fsync () =
  let base, code, text = record_segmented_faulty "seed=1,fsyncfail:4" in
  check "failed first segment fsync: exit 4" 4 code;
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "prints %S" line) true
        (contains text line))
    [
      "io-faults: 5 ops, 215 bytes written, 0 lost to short writes, 1 \
       fault(s) injected (0 transient), 0.0 ms stalled";
      Printf.sprintf "save failed: fsync(%s.0000.seg)" base;
    ];
  let code, text =
    run_out "replay -a miniht -m perfect -i %s" (Filename.quote base)
  in
  check "replays the sealed prefix: exit 4" 4 code;
  Alcotest.(check bool) "recovers the first segment" true
    (contains text "recovered 8 entries (1 complete segment(s))");
  rm_segmented base

(* A malformed token is a parse error, not an escaped exception: with its
   last entry replaced by a CRC-valid [b:] value that is neither true nor
   false, strict replay names the line (exit 1) and salvage skips it
   (exit 4). *)
let test_bad_token () =
  let app, seed, _ = Lazy.force scenario in
  let log = Filename.temp_file "ddet_cli" ".log" in
  check "record saves the value log" 0
    (run "record -a %s -m value -s %d -o %s" app.App.name seed
       (Filename.quote log));
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin log In_channel.input_all)
  in
  (* ...; last entry; "end N"; "" *)
  let ix = List.length lines - 3 in
  let bad = "input 0 c b:trte" in
  Out_channel.with_open_bin log (fun oc ->
      output_string oc
        (String.concat "\n"
           (List.mapi
              (fun k l ->
                if k = ix then Ddet_record.Log_io.crc_hex bad ^ " " ^ bad else l)
              lines)));
  let code, text =
    run_out "replay -a %s -m value -i %s" app.App.name (Filename.quote log)
  in
  check "strict load refuses the bad token: exit 1" 1 code;
  Alcotest.(check bool) "the error names the line" true
    (contains text (Printf.sprintf "line %d: bad value token b:trte" (ix + 1)));
  check "salvage skips the bad line: exit 4" 4
    (run "replay -a %s -m value -i %s --salvage --attempts 1" app.App.name
       (Filename.quote log));
  Sys.remove log

(* evidence that cannot be read follows the contract too: a segment that
   is a directory ends the recovery walk as a deleted one does (exit 4),
   and a log path that is a directory is a load error (exit 1) *)
let test_unreadable_segment () =
  let base = Filename.temp_file "ddet_cli" ".seg" in
  Sys.remove base;
  check "segmented record" 0
    (run "record -a miniht -m sync -s 1 -o %s --segments 4"
       (Filename.quote base));
  let seg1 = base ^ ".0001.seg" in
  Sys.remove seg1;
  Sys.mkdir seg1 0o755;
  let code, text =
    run_out "replay -a miniht -m sync -i %s" (Filename.quote base)
  in
  check "replays the recovered prefix: exit 4" 4 code;
  Alcotest.(check bool) "reports the prefix" true
    (contains text "recovered 4 entries (1 complete segment(s))");
  rm_segmented base

let test_unreadable_log () =
  let dir = Filename.temp_file "ddet_cli" ".log" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let code, text =
    run_out "replay -a adder -m value -i %s" (Filename.quote dir)
  in
  Sys.rmdir dir;
  check "load error: exit 1" 1 code;
  Alcotest.(check bool) "error starts with \"ddreplay: \"" true
    (String.length text >= 10 && String.sub text 0 10 = "ddreplay: ")

(* sharded (per-node) recordings: the distributed-evidence exit contract.
   Reproducing from partial shard evidence is a success (0) — missing
   evidence honestly searched around, reported as degraded DF; budget
   exhaustion with a best partial candidate is 3; an all-shards-lost set
   is 4 (no evidence at all); --lose-node against a monolithic log is a
   usage error (1). *)

let dist_plan = "seed=5,partition:server+p0|p1:10-80"

let record_sharded seed =
  let base = Filename.temp_file "ddet_cli" ".dist" in
  Sys.remove base;
  check "sharded record saves shards + manifest" 0
    (run "record -a msg_server -m perfect -s %d -o %s --shards --faults %s"
       seed (Filename.quote base) (Filename.quote dist_plan));
  base

let rm_sharded base =
  List.iter
    (fun suffix ->
      let p = base ^ suffix in
      if Sys.file_exists p then Sys.remove p)
    [ ".causal"; ".server.shard"; ".p0.shard"; ".p1.shard" ]

(* parse "after N attempt(s)" from a replay's stdout *)
let attempts_of text =
  let rec find i =
    if i + 6 > String.length text then None
    else if String.sub text i 6 = "after " then
      let j = ref (i + 6) in
      let n = ref 0 in
      let got = ref false in
      while
        !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9'
      do
        n := (10 * !n) + (Char.code text.[!j] - Char.code '0');
        got := true;
        incr j
      done;
      if !got then Some !n else find (i + 1)
    else find (i + 1)
  in
  find 0

(* Scan (seed, lost node) combinations for one where the reproduction
   needs >= 2 attempts: truncating the budget below that count then
   leaves a best-partial candidate — the deterministic exit-3 case. *)
let dist_scenario =
  lazy
    (let rec scan seed =
       if seed > 12 then Alcotest.fail "no multi-attempt sharded scenario"
       else
         let base = record_sharded seed in
         let hit =
           List.find_map
             (fun node ->
               let code, text =
                 run_out "replay -a msg_server -m perfect -i %s --lose-node %s"
                   (Filename.quote base) node
               in
               match attempts_of text with
               | Some n when code = 0 && n >= 2 -> Some (node, n)
               | _ -> None)
             [ "server"; "p0"; "p1" ]
         in
         match hit with
         | Some (node, n) -> (base, node, n)
         | None ->
           rm_sharded base;
           scan (seed + 1)
     in
     scan 1)

let test_sharded_reproduced () =
  let base, node, _ = Lazy.force dist_scenario in
  check "complete shard set auto-detected: exit 0" 0
    (run "replay -a msg_server -m perfect -i %s" (Filename.quote base));
  check "reproduction from partial evidence: exit 0" 0
    (run "replay -a msg_server -m perfect -i %s --lose-node %s"
       (Filename.quote base) node)

let test_sharded_partial () =
  let base, node, attempts = Lazy.force dist_scenario in
  check "budget below the hit leaves a best partial: exit 3" 3
    (run "replay -a msg_server -m perfect -i %s --lose-node %s --attempts %d"
       (Filename.quote base) node (attempts - 1))

let test_sharded_all_lost () =
  let base, _, _ = Lazy.force dist_scenario in
  let code, text =
    run_out
      "replay -a msg_server -m perfect -i %s --lose-node server --lose-node \
       p0 --lose-node p1"
      (Filename.quote base)
  in
  check "every shard lost, no evidence: exit 4" 4 code;
  Alcotest.(check bool) "says so" true (contains text "no evidence")

(* sharded debug honours the crash flags: a deadline-cut search leaves a
   checkpoint, resuming it prints what an uninterrupted run prints, and
   a resume file that is not there is refused *)
let test_sharded_debug_checkpoint () =
  let ckpt = Filename.temp_file "ddet_cli" ".ckpt" in
  Sys.remove ckpt;
  let debug = "debug -a msg_server -m failure -s 3 --lose-node p0" in
  check "deadline-cut sharded debug: exit 5" 5
    (run "%s --checkpoint %s --deadline 0.0000001" debug (Filename.quote ckpt));
  Alcotest.(check bool) "the checkpoint file exists" true (Sys.file_exists ckpt);
  let code, resumed = run_out "%s --resume %s" debug (Filename.quote ckpt) in
  check "resumed sharded debug: exit 0" 0 code;
  let code, whole = run_out "%s" debug in
  check "uninterrupted sharded debug: exit 0" 0 code;
  Alcotest.(check string) "resume prints the uninterrupted assessment" whole
    resumed;
  Sys.remove ckpt

let test_sharded_debug_missing_resume () =
  let code, text =
    run_out "debug -a msg_server -m failure -s 3 --lose-node p0 --resume %s"
      (Filename.quote "/nonexistent/x.ckpt")
  in
  check "missing resume file: exit 1" 1 code;
  Alcotest.(check bool) "says so" true (contains text "cannot resume")

let test_lose_node_needs_shards () =
  let app, seed, _ = Lazy.force scenario in
  let log = record_tmp app seed in
  check "--lose-node on a monolithic log: exit 1" 1
    (run "replay -a %s -m failure -i %s --lose-node p1" app.App.name
       (Filename.quote log));
  Sys.remove log

(* --io-faults rejects unknown clause names with the valid list, at Arg
   conversion time (cmdliner exit 124) *)
let test_io_faults_unknown_clause () =
  let code, text =
    run_out "record -a adder -m failure -s 1 -o /dev/null --io-faults %s"
      (Filename.quote "seed=1,fliprandom:3")
  in
  check "unknown io-fault clause: cmdliner usage error" 124 code;
  Alcotest.(check bool) "names the offender" true
    (contains text "unknown io-fault clause \"fliprandom\"");
  Alcotest.(check bool) "lists valid clauses" true
    (contains text "torn:OP[:KEEP]")

(* an indexed clause that lands on another operation kind is named, not
   silently ignored: op 1 of a monolithic save is the temp file's fsync,
   so a tear there never fires and the save succeeds *)
let test_io_faults_never_fired () =
  let log = Filename.temp_file "ddet_cli" ".log" in
  let code, text =
    run_out "record -a miniht -m perfect -s 3 -o %s --io-faults %s"
      (Filename.quote log) (Filename.quote "torn:1:0.5")
  in
  Sys.remove log;
  check "the save succeeds: exit 0" 0 code;
  Alcotest.(check bool) "names the clause" true
    (contains text
       "0 fault(s) injected (0 transient), 0.0 ms stalled, never fired: \
        torn:1:0.5")

(* static analysis subcommand: report shape and the lint exit contract *)

let test_analyze_clean () =
  let code, text = run_out "analyze -a cloudstore" in
  check "clean app: exit 0" 0 code;
  List.iter
    (fun section ->
      Alcotest.(check bool)
        (Printf.sprintf "report has %S" section)
        true (contains text section))
    [ "race candidates (0)"; "plane map"; "lint"; "ground truth control plane" ]

let test_analyze_races () =
  let code, text = run_out "analyze -a miniht" in
  check "lint-clean app with races: exit 0" 0 code;
  Alcotest.(check bool) "reports the migration race" true
    (contains text "race owner_0");
  Alcotest.(check bool) "lists suspect sites" true
    (contains text "suspect sites")

let test_analyze_lint_failing () =
  let code, text = run_out "analyze --demo" in
  check "lint errors: exit 1" 1 code;
  List.iter
    (fun rule ->
      Alcotest.(check bool)
        (Printf.sprintf "demo fires %S" rule)
        true (contains text rule))
    [ "double-lock"; "index-range"; "atomic-blocking"; "lock-imbalance";
      "unreachable" ]

let test_analyze_no_target () =
  check "no app and no demo: exit 1" 1 (run "analyze")

(* --json emits the machine-readable report; the single-node adder's is
   small enough to pin byte-for-byte *)
let test_analyze_json_golden () =
  let code, text = run_out "analyze -a adder --json" in
  check "json report: exit 0" 0 code;
  Alcotest.(check string) "golden adder json"
    ("{\"program\":\"adder\",\"threshold_bytes\":32,\"races\":[],\
      \"suspect_sids\":[],\"planes\":[{\"fname\":\"main\",\
      \"plane\":\"control\",\"weight\":8}],\"lints\":[],\"nodes\":[]}\n")
    text

(* --nodes turns on the cross-node layer: the demo's three-node wait
   cycle is a static deadlock (exit 1), the shipped topology is clean *)
let test_analyze_nodes_deadlock () =
  let code, text = run_out "analyze --demo --nodes" in
  check "static cross-node deadlock: exit 1" 1 code;
  Alcotest.(check bool) "names the rule" true (contains text "comm-deadlock");
  Alcotest.(check bool) "names the wedged channel" true
    (contains text "blocks on ping")

let test_analyze_nodes_clean () =
  let code, text = run_out "analyze -a msg_server --nodes" in
  check "msg_server topology clean: exit 0" 0 code;
  Alcotest.(check bool) "per-node sections" true
    (contains text "p0 (tids 1):");
  Alcotest.(check bool) "shard priority ranked by suspects" true
    (contains text "shard priority: p0 > p1 > server")

let test_analyze_nodes_json () =
  let code, text = run_out "analyze -a msg_server --nodes --json" in
  check "nodes json: exit 0" 0 code;
  Alcotest.(check bool) "node views present" true
    (contains text "\"nodes\":[{\"node\":\"server\"")

let test_analyze_nodes_no_map () =
  let code, text = run_out "analyze -a adder --nodes" in
  check "--nodes without a node map: exit 1" 1 code;
  Alcotest.(check bool) "explains the miss" true (contains text "no node map")

(* ------------------------------------------------------------------ *)
(* report: the session profile. With --mask every wall-time value is
   elided, so the adder demo's JSON is fully deterministic — pin it
   byte-for-byte, exactly like the analyze golden. *)

let report_golden =
  String.concat "\n"
    [
      "{\"schema\":1,\"app\":\"adder\",\"model\":\"value\",\
       \"reproduced\":true,\"attempts\":1,";
      " \"spans\":[";
      "  {\"name\":\"session.assess\",\"calls\":1,\"total_ns\":null},";
      "  {\"name\":\"session.record\",\"calls\":1,\"total_ns\":null},";
      "  {\"name\":\"session.replay\",\"calls\":1,\"total_ns\":null}],";
      " \"counters\":[";
      "  {\"name\":\"govern.dropped\",\"value\":0},";
      "  {\"name\":\"govern.transitions\",\"value\":0},";
      "  {\"name\":\"oracle.cold_pins\",\"value\":0},";
      "  {\"name\":\"oracle.cursor_stalls\",\"value\":0},";
      "  {\"name\":\"oracle.rcse_held\",\"value\":0},";
      "  {\"name\":\"oracle.rcse_risky\",\"value\":0},";
      "  {\"name\":\"oracle.rcse_stalls\",\"value\":0},";
      "  {\"name\":\"oracle.rcse_starved\",\"value\":0},";
      "  {\"name\":\"oracle.steer_hot_picks\",\"value\":0},";
      "  {\"name\":\"record.entries.book\",\"value\":0},";
      "  {\"name\":\"record.entries.sched\",\"value\":0},";
      "  {\"name\":\"record.entries.sync\",\"value\":0},";
      "  {\"name\":\"record.entries.value\",\"value\":2},";
      "  {\"name\":\"search.aborted\",\"value\":0},";
      "  {\"name\":\"search.attempts\",\"value\":1},";
      "  {\"name\":\"search.deadline_hits\",\"value\":0},";
      "  {\"name\":\"search.incidents\",\"value\":0},";
      "  {\"name\":\"search.pruned\",\"value\":0},";
      "  {\"name\":\"search.step_cap_hits\",\"value\":0},";
      "  {\"name\":\"search.steps\",\"value\":5},";
      "  {\"name\":\"stitch.edges_dropped\",\"value\":0},";
      "  {\"name\":\"stitch.edges_enforced\",\"value\":0},";
      "  {\"name\":\"store.give_ups\",\"value\":0},";
      "  {\"name\":\"store.retries\",\"value\":0}],";
      " \"events\":7,\"dropped\":0}";
      "";
    ]

let test_report_json_golden () =
  let code, text = run_out "report -a adder -m value --json --mask" in
  check "report json: exit 0" 0 code;
  Alcotest.(check string) "golden adder report" report_golden text

let test_report_human () =
  let code, text = run_out "report -a adder -m value" in
  check "report: exit 0" 0 code;
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "profile shows %S" needle)
        true (contains text needle))
    [
      "session: adder under value";
      "session.record";
      "session.replay";
      "search.attempts";
      "govern.transitions";
      "stitch.edges_enforced";
    ]

(* msg_server's rcse-code replay reproduces nothing: the report ends by
   naming where its first attempt left the log *)
let test_report_names_divergence () =
  let code, text = run_out "report -a msg_server -m rcse-code -s 1" in
  check "report: exit 0" 0 code;
  Alcotest.(check bool) "closing line names the held head and its site" true
    (contains text
       "attempt 1 left the log at step 74: t0 must run s11 next but stands at \
        s14, which the log records later")

let test_report_trace_export () =
  let out = Filename.temp_file "ddet_cli" ".trace.json" in
  let code, _ =
    run_out "report -a adder -m value --trace %s" (Filename.quote out)
  in
  check "report --trace: exit 0" 0 code;
  let ic = open_in_bin out in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove out;
  Alcotest.(check bool) "chrome trace-event envelope" true
    (contains text "{\"traceEvents\":[");
  Alcotest.(check bool) "session span exported" true
    (contains text "\"name\":\"session.record\"")

(* every diagnostic goes through one helper, so the program name
   prefixes each error line — greppable and attributable in CI logs *)
let test_err_prefix () =
  let code, text = run_out "replay -a adder -m value -i /nonexistent/x.log" in
  check "load error: exit 1" 1 code;
  Alcotest.(check bool) "error starts with \"ddreplay: \"" true
    (String.length text >= 10 && String.sub text 0 10 = "ddreplay: ");
  let code, text = run_out "debug -a adder -m value -s 1 --static-steer" in
  check "usage error: exit 1" 1 code;
  Alcotest.(check bool) "usage error carries the prefix too" true
    (contains text "ddreplay: --static-steer requires")

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: test_cli.exe <path-to-ddreplay.exe>";
    exit 2
  end;
  (ddreplay :=
     let p = Sys.argv.(1) in
     if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p);
  (* the shard set the distributed cases share outlives each of them *)
  at_exit (fun () ->
      if Lazy.is_val dist_scenario then begin
        let base, _, _ = Lazy.force dist_scenario in
        rm_sharded base
      end);
  (* alcotest parses argv itself; hide ours *)
  let argv = [| Sys.argv.(0) |] in
  Alcotest.run ~argv "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "0: reproduced" `Quick test_reproduced;
          Alcotest.test_case "3: degraded to partial" `Quick test_partial;
          Alcotest.test_case "4: salvaged damage" `Quick test_salvaged;
          Alcotest.test_case "1 and 4: malformed token" `Quick test_bad_token;
          Alcotest.test_case "5: deadline exhausted" `Quick test_deadline;
          Alcotest.test_case "5: scan exhausted" `Quick test_find_exhausted;
          Alcotest.test_case "4: unreadable segment ends the walk" `Quick
            test_unreadable_segment;
          Alcotest.test_case "1: unreadable log" `Quick test_unreadable_log;
        ] );
      ( "crash-flags",
        [
          Alcotest.test_case "checkpoint then resume" `Quick
            test_checkpoint_resume;
          Alcotest.test_case "segmented record and replay" `Quick
            test_segmented_roundtrip;
          Alcotest.test_case "segmented save dies on a torn segment write"
            `Quick test_segmented_torn_write;
          Alcotest.test_case "segmented save dies on its first segment fsync"
            `Quick test_segmented_failed_fsync;
          Alcotest.test_case "sharded debug checkpoint then resume" `Quick
            test_sharded_debug_checkpoint;
          Alcotest.test_case "sharded debug refuses a missing resume file"
            `Quick test_sharded_debug_missing_resume;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "0: reproduced from shards (full and partial)"
            `Quick test_sharded_reproduced;
          Alcotest.test_case "3: best partial from shards" `Quick
            test_sharded_partial;
          Alcotest.test_case "4: all shards lost" `Quick test_sharded_all_lost;
          Alcotest.test_case "1: --lose-node needs a sharded recording" `Quick
            test_lose_node_needs_shards;
          Alcotest.test_case "124: unknown io-fault clause" `Quick
            test_io_faults_unknown_clause;
          Alcotest.test_case "0: an io-fault clause that never fires" `Quick
            test_io_faults_never_fired;
        ] );
      ( "analyze",
        [
          Alcotest.test_case "clean report shape" `Quick test_analyze_clean;
          Alcotest.test_case "race candidates on miniht" `Quick
            test_analyze_races;
          Alcotest.test_case "lint errors exit nonzero" `Quick
            test_analyze_lint_failing;
          Alcotest.test_case "missing target is an error" `Quick
            test_analyze_no_target;
          Alcotest.test_case "--json golden report" `Quick
            test_analyze_json_golden;
          Alcotest.test_case "--nodes flags the demo deadlock" `Quick
            test_analyze_nodes_deadlock;
          Alcotest.test_case "--nodes clean topology" `Quick
            test_analyze_nodes_clean;
          Alcotest.test_case "--nodes json views" `Quick
            test_analyze_nodes_json;
          Alcotest.test_case "--nodes needs a node map" `Quick
            test_analyze_nodes_no_map;
        ] );
      ( "report",
        [
          Alcotest.test_case "--json --mask golden profile" `Quick
            test_report_json_golden;
          Alcotest.test_case "human profile covers the phases" `Quick
            test_report_human;
          Alcotest.test_case "a strict RCSE miss names where it left the log"
            `Quick test_report_names_divergence;
          Alcotest.test_case "--trace exports chrome json" `Quick
            test_report_trace_export;
          Alcotest.test_case "errors carry the ddreplay: prefix" `Quick
            test_err_prefix;
        ] );
    ]
