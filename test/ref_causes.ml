(* The root-cause predicates and verdict as they were before the
   one-pass rewrite: miniht's race predicate reconstructs each of its 8
   final values with its own [Trace.scalar_at] fold over a
   [Printf]-built name, cloudstore's folds twice per block, both apps'
   fault predicates list every input of the channel, and [primary]
   evaluates every cause before taking the first. test_props checks the
   library's catalogs against these on production runs and replays. *)

open Mvm
open Ddet_metrics

let final_int trace region =
  match Trace.scalar_at trace region ~init:(Value.int 0) ~step:max_int with
  | Value.Vint n -> n
  | _ -> 0

let final_owner trace r =
  match
    Trace.scalar_at trace (Printf.sprintf "owner_%d" r) ~init:(Value.int r)
      ~step:max_int
  with
  | Value.Vint n -> n
  | _ -> r

let miniht_race (r : Interp.result) =
  let t = r.Interp.trace in
  let stranded s rng =
    final_int t (Printf.sprintf "st_%d_%d" s rng) > 0 && final_owner t rng <> s
  in
  stranded 0 0 || stranded 0 1 || stranded 1 0 || stranded 1 1

let fault_fired chan (r : Interp.result) =
  List.exists
    (fun (_, _, v) -> Value.equal v (Value.int 1))
    (Trace.inputs_on r.Interp.trace chan)

let cloudstore_race (r : Interp.result) =
  let t = r.Interp.trace in
  let stale_then_present b =
    Trace.exists
      (fun (e : Event.t) ->
        match e.Event.kind with
        | Event.Read { region = "disk_1"; index = Some i; value } when i = b ->
          Value.equal value.Value.v (Value.int 0)
        | _ -> false)
      t
    && Value.equal
         (Trace.array_cell_at t "disk_1" ~index:b ~init:(Value.int 0) ~step:max_int)
         (Value.int 1)
  in
  List.exists stale_then_present (List.init 8 (fun b -> b))

(* [holds app id]: the reference predicate for the cause [id] of [app],
   or [None] where the library's own predicate is unchanged *)
let holds app id =
  match (app, id) with
  | "miniht", "migration-commit-race" -> Some miniht_race
  | "miniht", "server-crash" ->
    Some (fun r -> fault_fired "fault_crash_0" r || fault_fired "fault_crash_1" r)
  | "miniht", "client-oom" -> Some (fault_fired "fault_oom")
  | "cloudstore", "early-ack-race" -> Some cloudstore_race
  | "cloudstore", "replication-drop" -> Some (fault_fired "fault_net")
  | "cloudstore", "disk-fault" -> Some (fault_fired "fault_disk")
  | _ -> None

(* the catalog with every rewritten predicate swapped for its reference *)
let catalog (c : Root_cause.catalog) =
  {
    c with
    Root_cause.causes =
      List.map
        (fun (cause : Root_cause.t) ->
          match holds c.Root_cause.app cause.Root_cause.id with
          | Some h -> { cause with Root_cause.holds = h }
          | None -> cause)
        c.Root_cause.causes;
  }

let observed (c : Root_cause.catalog) (r : Interp.result) =
  match r.Interp.failure with
  | Some f when c.Root_cause.failure_sig f ->
    List.filter (fun (cause : Root_cause.t) -> cause.Root_cause.holds r) c.Root_cause.causes
  | Some _ | None -> []

let primary c r = match observed c r with [] -> None | cause :: _ -> Some cause
