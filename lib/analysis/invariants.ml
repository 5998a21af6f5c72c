open Mvm

type bound = { lo : int; hi : int }

type t = {
  scalar_bounds : (string * bound) list;
  input_bounds : (string * bound) list;
}

let widen tbl key n =
  match Hashtbl.find_opt tbl key with
  | Some b -> Hashtbl.replace tbl key { lo = min b.lo n; hi = max b.hi n }
  | None -> Hashtbl.replace tbl key { lo = n; hi = n }

let infer results =
  let scalars : (string, bound) Hashtbl.t = Hashtbl.create 16 in
  let inputs : (string, bound) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Interp.result) ->
      Trace.iter
        (fun (e : Event.t) ->
          match e.kind with
          | Event.Write { region; index = None; value = { Value.v = Value.Vint n; _ } } ->
            widen scalars region n
          | Event.In { chan; value = { Value.v = Value.Vint n; _ } } ->
            widen inputs chan n
          | _ -> ())
        r.trace)
    results;
  let to_sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { scalar_bounds = to_sorted scalars; input_bounds = to_sorted inputs }

(* a name with no trained bound: nothing lies outside it *)
let unbounded = { lo = min_int; hi = max_int }

(* first match by [String.equal] *)
let rec bound_of bounds key =
  match bounds with
  | [] -> unbounded
  | (k, b) :: rest -> if String.equal k key then b else bound_of rest key

let outside b n = n < b.lo || n > b.hi

let violation t (e : Event.t) =
  match e.kind with
  | Event.Write { region; index = None; value = { Value.v = Value.Vint n; _ } }
    when outside (bound_of t.scalar_bounds region) n ->
    Some (Printf.sprintf "scalar %s = %d outside trained range" region n)
  | Event.In { chan; value = { Value.v = Value.Vint n; _ } }
    when outside (bound_of t.input_bounds chan) n ->
    Some (Printf.sprintf "input %s = %d outside trained range" chan n)
  | _ -> None

(* Until it trips, the selector checks every integer scalar write and
   input. It finds the bound through a per-site memo, one for writes and
   one for inputs, so a region and a channel of the same name at one
   site cannot answer for each other. *)
let selector t =
  let tripped = ref false in
  let writes = Site_memo.create () and inputs = Site_memo.create () in
  let scalar_bound region = bound_of t.scalar_bounds region in
  let input_bound chan = bound_of t.input_bounds chan in
  let violated (e : Event.t) =
    match e.kind with
    | Event.Write { region; index = None; value = { Value.v = Value.Vint n; _ } } ->
      outside (Site_memo.find writes e.sid region scalar_bound) n
    | Event.In { chan; value = { Value.v = Value.Vint n; _ } } ->
      outside (Site_memo.find inputs e.sid chan input_bound) n
    | _ -> false
  in
  {
    Ddet_record.Fidelity_level.name = "data-based";
    level =
      (fun e ->
        if (not !tripped) && violated e then tripped := true;
        if !tripped then Ddet_record.Fidelity_level.High
        else Ddet_record.Fidelity_level.Low);
  }

let pp ppf t =
  let pp_bounds label bounds =
    List.iter
      (fun (k, b) -> Format.fprintf ppf "%s %s in [%d, %d]@." label k b.lo b.hi)
      bounds
  in
  pp_bounds "scalar" t.scalar_bounds;
  pp_bounds "input" t.input_bounds
