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

(* first match by [String.equal]: the data-based selector checks every
   integer write and input *)
let rec check bounds key n =
  match bounds with
  | [] -> false
  | (k, b) :: rest ->
    if String.equal k key then n < b.lo || n > b.hi else check rest key n

let violation t (e : Event.t) =
  match e.kind with
  | Event.Write { region; index = None; value = { Value.v = Value.Vint n; _ } }
    when check t.scalar_bounds region n ->
    Some (Printf.sprintf "scalar %s = %d outside trained range" region n)
  | Event.In { chan; value = { Value.v = Value.Vint n; _ } }
    when check t.input_bounds chan n ->
    Some (Printf.sprintf "input %s = %d outside trained range" chan n)
  | _ -> None

let selector t =
  let tripped = ref false in
  {
    Ddet_record.Fidelity_level.name = "data-based";
    level =
      (fun e ->
        if (not !tripped) && Option.is_some (violation t e) then tripped := true;
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
