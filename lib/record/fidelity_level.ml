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
  { name; level = (fun (e : Mvm.Event.t) -> f e.fname) }

let by_site ~name f =
  { name; level = (fun (e : Mvm.Event.t) -> f e.sid) }

let any selectors =
  let name = String.concat "+" (List.map (fun s -> s.name) selectors) in
  {
    name;
    level =
      (fun e ->
        (* evaluate all: stateful selectors must observe every event *)
        List.fold_left
          (fun acc s -> match s.level e with High -> High | Low -> acc)
          Low selectors);
  }
