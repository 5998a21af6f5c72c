type t = Low | High

let to_string = function Low -> "low" | High -> "high"
let equal a b = match a, b with Low, Low | High, High -> true | _ -> false

type selector = {
  name : string;
  level : Mvm.Event.t -> t;
}

let always level =
  { name = "always-" ^ to_string level; level = (fun _ -> level) }

let by_function ~name f =
  let memo = Mvm.Site_memo.create () in
  {
    name;
    level = (fun (e : Mvm.Event.t) -> Mvm.Site_memo.find memo e.sid e.fname f);
  }

let by_site ~name f =
  { name; level = (fun (e : Mvm.Event.t) -> f e.sid) }

(* every constituent, in order: stateful selectors must observe every
   event, whatever an earlier one answered *)
let rec any_level e acc = function
  | [] -> acc
  | s :: rest -> (
    match s.level e with
    | High -> any_level e High rest
    | Low -> any_level e acc rest)

let any selectors =
  let name = String.concat "+" (List.map (fun s -> s.name) selectors) in
  { name; level = (fun e -> any_level e Low selectors) }
