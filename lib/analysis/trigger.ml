open Mvm

type t = {
  name : string;
  fired : Event.t -> bool;
}

let manual ~name fired = { name; fired }

let of_race_detector rd =
  {
    name = "race-detector";
    fired = (fun e -> Option.is_some (Race_detector.observe rd e));
  }

let of_sites ?(name = "static-sites") sids =
  let tbl = Hashtbl.create (List.length sids) in
  List.iter (fun s -> Hashtbl.replace tbl s ()) sids;
  {
    name;
    fired =
      (fun (e : Event.t) -> Event.is_shared_access e && Hashtbl.mem tbl e.sid);
  }

let large_input ~chan ~threshold =
  {
    name = Printf.sprintf "large-input(%s>%d)" chan threshold;
    fired =
      (fun (e : Event.t) ->
        match e.kind with
        | Event.In io when String.equal io.chan chan -> (
          match io.value.Value.v with
          | Value.Vint n -> n > threshold
          | Value.Vstr s -> String.length s > threshold
          | Value.Vbool _ | Value.Vunit -> false)
        | _ -> false);
  }

(* in order, up to the first trigger that fires, as [List.exists] *)
let rec fires e = function [] -> false | t :: rest -> t.fired e || fires e rest

let selector ?(sticky = false) ?(window = 500) triggers =
  let high_until = ref (-1) in
  let name =
    "triggers(" ^ String.concat "," (List.map (fun t -> t.name) triggers) ^ ")"
  in
  {
    Ddet_record.Fidelity_level.name;
    level =
      (fun (e : Event.t) ->
        let fired = fires e triggers in
        if fired then
          high_until := if sticky then max_int else max !high_until (e.step + window);
        if e.step <= !high_until then Ddet_record.Fidelity_level.High
        else Ddet_record.Fidelity_level.Low);
  }
