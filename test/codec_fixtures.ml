(* The values behind the committed format fixtures in fixtures/, one
   per evidence format, each written by the library's own writer:

     fixtures/every_kind.log          Log_io.save
     fixtures/seg.{header,NNNN.seg,manifest}
                                      Log_segments.save ~segment_entries:8
     fixtures/dist.{NODE.shard,causal}
                                      Sharded_log.save_via ~causal
     fixtures/frontier.ckpt           Checkpoint.write
     fixtures/{inputs,dfs}.ckpt       Search.enumerate_inputs and
                                      Search.dfs_schedules, flushing
                                      through Checkpoint.sink ~every:1
     fixtures/dfs-pruned.ckpt         the state-hash-pruned DFS, since
                                      retired; Checkpoint.load refuses it

   The entry streams (every_kind.log, the shards, the segments and
   seg.header) and dist.causal were first written by the Printf/Scanf
   codec that the allocation-light one replaced (kept as Ref_codec).
   seg.manifest dates from the segment manifest's move to the shared
   manifest grammar (ddet-manifest v2), and frontier.ckpt from
   checkpoints losing the pruned DFS's seen line. inputs.ckpt was written
   by the input odometer before the two odometer engines came to share
   one loop, and dfs.ckpt by the DFS of that time with its pruning
   switched off; dfs-pruned.ckpt is the frontier the pruned DFS flushed
   on the same racy counter at 10 attempts.

   Changing anything here orphans the fixtures: the bytes on disk are the
   contract, so the writers must keep reproducing them. *)

open Mvm
open Ddet_record
open Ddet_replay

let tricky =
  "tab\there \"quoted\" back\\slash\nnewline \r\b \000\031\127 caf\xc3\xa9 \xff"

let faults =
  match
    Fault.of_string "seed=11,drop:ack_0:0.15,delay:req:10-80,crash:2:300"
  with
  | Ok p -> p
  | Error e -> failwith e

let crash = Failure.Crash { sid = -7; msg = tricky }

(* every entry kind, every value kind, negative and extreme ints, and
   strings that need every escape class *)
let every_kind =
  Log.make ~faults ~recorder:"rcse \"fixture\"" ~base_steps:4242
    ~failure:(Some crash)
    ~entries:
      [
        Log.Sched { tid = 0; sid = 3 };
        Log.Sched { tid = 12; sid = -1 };
        Log.Input { tid = 1; chan = "in0"; value = Value.int (-42) };
        Log.Input { tid = 1; chan = "in0"; value = Value.int min_int };
        Log.Input { tid = 2; chan = "cfg"; value = Value.str tricky };
        Log.Input { tid = 2; chan = "cfg"; value = Value.str "" };
        Log.Read_val
          { tid = 0; sid = 5; kind = Log.Mem; value = Value.int max_int };
        Log.Read_val
          { tid = 3; sid = 6; kind = Log.Msg; value = Value.bool true };
        Log.Read_val { tid = 3; sid = 7; kind = Log.Mem; value = Value.unit };
        Log.Output { chan = "out"; value = Value.bool false };
        Log.Output { chan = "out"; value = Value.str "a b" };
        Log.Sync { tid = 1; sid = 8; op = Log.Op_send "c" };
        Log.Sync { tid = 0; sid = 9; op = Log.Op_recv "c" };
        Log.Sync { tid = 0; sid = 1; op = Log.Op_spawn };
        Log.Sync { tid = 2; sid = 10; op = Log.Op_lock "m" };
        Log.Sync { tid = 2; sid = 11; op = Log.Op_unlock "m" };
        Log.Cp_sched { tid = 1; sid = 9 };
        Log.Cp_input
          { tid = 1; sid = 9; chan = "in1"; value = Value.str "x\\y" };
        Log.Cp_input { tid = 3; sid = -2; chan = "in1"; value = Value.int 0 };
        Log.Failure_desc crash;
        Log.Failure_desc (Failure.Spec_violation "inv \"broken\"");
        Log.Failure_desc Failure.Hang;
        Log.Flight_note { buffered = 0 };
        Log.Flight_note { buffered = 123456 };
        Log.Mark "dial-up";
        Log.Mark tricky;
        Log.Govern { step = 10; level = 2; reason = "budget \"1.3x\"" };
        Log.Govern { step = 4000; level = 0; reason = "" };
      ]
    ()

(* three nodes; tid 12 is unobserved and falls back to the first node *)
let causal =
  {
    Causal.nodes = [ "server"; "p0"; "p1" ];
    tid_node = [ (0, "server"); (1, "p0"); (2, "p1"); (3, "p1") ];
    edges =
      [
        {
          Causal.chan = "c";
          send_node = "p0";
          send_seq = 1;
          recv_node = "server";
          recv_seq = 1;
        };
        {
          Causal.chan = "reply \"x\"";
          send_node = "server";
          send_seq = 2;
          recv_node = "p1";
          recv_seq = 1;
        };
      ];
  }

(* a DFS frontier with every optional field: a prefix and a best
   candidate keyed by its decision prefix (the value test_crash's
   checkpoint cases use) *)
let checkpoint =
  {
    Checkpoint.engine = "dfs";
    base_seed = 1;
    attempt = 17;
    total_steps = 123_456;
    pruned = 9;
    prefix = Some [| 0; 3; 1 |];
    best =
      Some
        { Checkpoint.b_closeness = 0.8125; b_attempt = 4;
          b_prefix = Some [| 0; 2 |] };
  }

(* two engine frontiers: the file a search flushes when its attempt
   budget runs out under [Checkpoint.sink ~every:1]. Input enumeration
   on the paper's adder keeps the largest sum as its best candidate; the
   DFS on the racy counter never accepts, so its frontier carries the
   best-candidate prefix it met at attempt 31 (within 10 attempts the
   best is still the empty prefix). They pin what the odometer engines
   write, not only how a checkpoint encodes. *)

let float_output chan r =
  match Trace.outputs_on r.Interp.trace chan with
  | [ Value.Vint n ] -> float_of_int n
  | _ -> 0.

let inputs_search ~checkpoint =
  let adder = Ddet_apps.Adder.app () in
  Search.enumerate_inputs ~checkpoint ~score:(float_output "sum")
    { Search.max_attempts = 12; max_steps_per_attempt = 1_000; base_seed = 1;
      deadline_s = None }
    ~spec:adder.Ddet_apps.App.spec
    ~accept:(fun r -> r.Interp.failure <> None)
    adder.Ddet_apps.App.labeled

let dfs_search ~checkpoint =
  Search.dfs_schedules ~checkpoint
    ~score:(fun r -> 8. -. float_output "out" r)
    { Search.max_attempts = 40; max_steps_per_attempt = 5_000; base_seed = 1;
      deadline_s = None }
    ~spec:Ddet.Experiment.racy_counter_spec
    ~accept:(fun _ -> false)
    Ddet.Experiment.racy_counter

let log_file = "every_kind.log"
let seg_base = "seg"
let seg_entries = 8
let dist_base = "dist"
let ckpt_file = "frontier.ckpt"
let inputs_ckpt_file = "inputs.ckpt"
let dfs_ckpt_file = "dfs.ckpt"
let pruned_ckpt_file = "dfs-pruned.ckpt"
