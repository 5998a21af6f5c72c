open Mvm

type config = { sample_rate : float; window : int; seed : int }

let default_config = { sample_rate = 1.0; window = 50; seed = 1 }

type report = {
  region : string;
  index : int option;
  sid_first : int;
  sid_second : int;
  tid_first : int;
  tid_second : int;
  step : int;
}

type last = {
  mutable l_step : int;
  mutable l_tid : int;
  mutable l_sid : int;
  mutable l_write : bool;
}

(* locations compared without polymorphic compare: every shared access
   of a recording looks its location up here *)
module Loc = Hashtbl.Make (struct
  type t = string * int option

  let equal (r, i) (r', i') = String.equal r r' && Option.equal Int.equal i i'
  let hash = Hashtbl.hash
end)

type t = {
  config : config;
  rng : Prng.t;
  last_access : last Loc.t;
  found : report Vec.t;
}

let create config =
  {
    config;
    rng = Prng.create config.seed;
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
              region = a.region;
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

let pp_report ppf r =
  Format.fprintf ppf "race on %s%s: t%d@s%d vs t%d@s%d at step %d" r.region
    (match r.index with Some i -> Printf.sprintf "[%d]" i | None -> "")
    r.tid_first r.sid_first r.tid_second r.sid_second r.step
