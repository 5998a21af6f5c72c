(* The RCSE selectors as they decided before the per-site memo: the
   code-based selector walks the plane map for every event, the
   data-based one walks its bound lists by [String.equal], the trigger
   selector asks [List.exists], [any] folds a closure over its
   constituents, and the race detector keys its last accesses by a
   [(region, index)] tuple in a hash table. test_props runs the library's
   selectors against these in lock step over the same event streams. *)

open Mvm
open Ddet_record
open Ddet_analysis

let code_based map =
  {
    Fidelity_level.name = "code-based";
    level =
      (fun (e : Event.t) ->
        match Plane.plane_of map e.fname with
        | Plane.Control -> Fidelity_level.High
        | Plane.Data -> Fidelity_level.Low);
  }

let rec check bounds key n =
  match bounds with
  | [] -> false
  | (k, (b : Invariants.bound)) :: rest ->
    if String.equal k key then n < b.lo || n > b.hi else check rest key n

let violated (t : Invariants.t) (e : Event.t) =
  match e.kind with
  | Event.Write { region; index = None; value = { Value.v = Value.Vint n; _ } } ->
    check t.scalar_bounds region n
  | Event.In { chan; value = { Value.v = Value.Vint n; _ } } ->
    check t.input_bounds chan n
  | _ -> false

let data_based t =
  let tripped = ref false in
  {
    Fidelity_level.name = "data-based";
    level =
      (fun e ->
        if (not !tripped) && violated t e then tripped := true;
        if !tripped then Fidelity_level.High else Fidelity_level.Low);
  }

let any selectors =
  {
    Fidelity_level.name = String.concat "+" (List.map (fun s -> s.Fidelity_level.name) selectors);
    level =
      (fun e ->
        List.fold_left
          (fun acc s ->
            match s.Fidelity_level.level e with
            | Fidelity_level.High -> Fidelity_level.High
            | Fidelity_level.Low -> acc)
          Fidelity_level.Low selectors);
  }

let trigger_selector ?(sticky = false) ?(window = 500) (triggers : Trigger.t list) =
  let high_until = ref (-1) in
  {
    Fidelity_level.name = "triggers";
    level =
      (fun (e : Event.t) ->
        if List.exists (fun (t : Trigger.t) -> t.fired e) triggers then
          high_until := if sticky then max_int else max !high_until (e.step + window);
        if e.step <= !high_until then Fidelity_level.High else Fidelity_level.Low);
  }

(* the race detector *)

type last = {
  mutable l_step : int;
  mutable l_tid : int;
  mutable l_sid : int;
  mutable l_write : bool;
}

module Loc = Hashtbl.Make (struct
  type t = string * int option

  let equal (r, i) (r', i') = String.equal r r' && Option.equal Int.equal i i'
  let hash = Hashtbl.hash
end)

type race_detector = {
  config : Race_detector.config;
  rng : Prng.t;
  last_access : last Loc.t;
  found : Race_detector.report Vec.t;
}

let race_detector config =
  {
    config;
    rng = Prng.create config.Race_detector.seed;
    last_access = Loc.create 64;
    found = Vec.create ();
  }

let observe t (e : Event.t) =
  let access =
    match e.kind with
    | Event.Read a -> Some (a, false)
    | Event.Write a -> Some (a, true)
    | _ -> None
  in
  match access with
  | None -> None
  | Some (a, is_write) -> (
    let key = (a.region, a.index) in
    match Loc.find t.last_access key with
    | exception Not_found ->
      Loc.add t.last_access key
        { l_step = e.step; l_tid = e.tid; l_sid = e.sid; l_write = is_write };
      None
    | l ->
      let report =
        if
          l.l_tid <> e.tid
          && e.step - l.l_step <= t.config.window
          && (is_write || l.l_write)
          && Prng.float t.rng < t.config.sample_rate
        then begin
          let r =
            {
              Race_detector.region = a.region;
              index = a.index;
              sid_first = l.l_sid;
              sid_second = e.sid;
              tid_first = l.l_tid;
              tid_second = e.tid;
              step = e.step;
            }
          in
          Vec.push t.found r;
          Some r
        end
        else None
      in
      l.l_step <- e.step;
      l.l_tid <- e.tid;
      l.l_sid <- e.sid;
      l.l_write <- is_write;
      report)

let reports t = Vec.to_list t.found

let race_trigger rd =
  { Trigger.name = "race-detector"; fired = (fun e -> Option.is_some (observe rd e)) }
