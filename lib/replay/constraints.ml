open Mvm
open Ddet_record

let failure_matches log (r : Interp.result) =
  match Log.recorded_failure log, r.failure with
  | Some f, Some f' -> Failure.equal f f'
  | None, None -> true
  | Some _, None | None, Some _ -> false

let failure_reproduced log (r : Interp.result) =
  (match r.status with Interp.Aborted _ -> false | _ -> true)
  && failure_matches log r

let outputs_match log (r : Interp.result) =
  let logged = Log.outputs log in
  let got = r.outputs in
  List.length logged = List.length got
  && List.for_all2
       (fun (c1, vs1) (c2, vs2) ->
         String.equal c1 c2
         && List.length vs1 = List.length vs2
         && List.for_all2 Value.equal vs1 vs2)
       logged got

(* The reason strings are built only when an attempt is cut, once per
   attempt: a matching output costs one string-keyed lookup. *)
let output_prefix_abort log =
  let expected = Tbl.Str.create 8 in
  List.iter (fun (c, vs) -> Tbl.Str.replace expected c (ref vs)) (Log.outputs log);
  fun (e : Event.t) ->
    match e.kind with
    | Event.Out io -> (
      match Tbl.Str.find_opt expected io.chan with
      | None -> Some ("unexpected output channel " ^ io.chan)
      | Some r -> (
        match !r with
        | [] -> Some ("extra output on " ^ io.chan)
        | v :: tl ->
          if Value.equal v io.value.Value.v then (
            r := tl;
            None)
          else Some ("output mismatch on " ^ io.chan)))
    | _ -> None

let both a b e = match a e with Some _ as r -> r | None -> b e

(* How far a candidate run got towards the recording: half weight on
   reproducing the failure, half on the matched per-channel output
   prefix. Used to rank best-effort candidates when a search exhausts its
   budget — the score never influences acceptance. *)
let closeness log (r : Interp.result) =
  let fail_score = if failure_matches log r then 1. else 0. in
  match Log.outputs log with
  | [] -> fail_score
  | logged ->
    let prefix_len vs ws =
      let rec go n = function
        | v :: vtl, w :: wtl when Value.equal v w -> go (n + 1) (vtl, wtl)
        | _ -> n
      in
      go 0 (vs, ws)
    in
    let matched, total =
      List.fold_left
        (fun (m, t) (chan, vs) ->
          let got =
            Option.value ~default:[]
              (List.assoc_opt chan r.Interp.outputs)
          in
          (m + prefix_len vs got, t + List.length vs))
        (0, 0) logged
    in
    (0.5 *. fail_score) +. (0.5 *. float_of_int matched /. float_of_int (max 1 total))
