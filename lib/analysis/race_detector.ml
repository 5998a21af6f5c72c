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

(* a location never accessed yet: compared physically, never mutated *)
let absent = { l_step = 0; l_tid = 0; l_sid = 0; l_write = false }

(* A region's locations: the scalar cell, and array cells by index in a
   growable array; an index outside [0, max_index) (hand-built events
   only: the interpreter checks bounds) goes to [far]. *)
type slots = {
  mutable scalar : last;
  mutable cells : last array;
  far : (int, last) Hashtbl.t;
}

let max_index = 1 lsl 16

type t = {
  config : config;
  rng : Prng.t;
  memo : slots Site_memo.t;
  slots_of : string -> slots;
  found : report Vec.t;
}

let create config =
  let regions = Hashtbl.create 16 in
  let slots_of region =
    match Hashtbl.find_opt regions region with
    | Some s -> s
    | None ->
      let s = { scalar = absent; cells = [||]; far = Hashtbl.create 1 } in
      Hashtbl.replace regions region s;
      s
  in
  {
    config;
    rng = Prng.create config.seed;
    memo = Site_memo.create ();
    slots_of;
    found = Vec.create ();
  }

let get_cell s i =
  if i >= 0 && i < max_index then
    if i < Array.length s.cells then Array.unsafe_get s.cells i else absent
  else Option.value ~default:absent (Hashtbl.find_opt s.far i)

let set_cell s i l =
  if i >= 0 && i < max_index then begin
    let n = Array.length s.cells in
    if i >= n then begin
      let n' = Int.min max_index (Int.max (i + 1) (Int.max 8 (2 * n))) in
      let cells = Array.make n' absent in
      Array.blit s.cells 0 cells 0 n;
      s.cells <- cells
    end;
    Array.unsafe_set s.cells i l
  end
  else Hashtbl.replace s.far i l

let access t (e : Event.t) (a : Event.access) is_write =
  let s = Site_memo.find t.memo e.sid a.region t.slots_of in
  let l = match a.index with None -> s.scalar | Some i -> get_cell s i in
  if l == absent then begin
    let l = { l_step = e.step; l_tid = e.tid; l_sid = e.sid; l_write = is_write } in
    (match a.index with None -> s.scalar <- l | Some i -> set_cell s i l);
    None
  end
  else begin
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
    report
  end

let observe t (e : Event.t) =
  match e.kind with
  | Event.Read a -> access t e a false
  | Event.Write a -> access t e a true
  | _ -> None

let reports t = Vec.to_list t.found

let pp_report ppf r =
  Format.fprintf ppf "race on %s%s: t%d@s%d vs t%d@s%d at step %d" r.region
    (match r.index with Some i -> Printf.sprintf "[%d]" i | None -> "")
    r.tid_first r.sid_first r.tid_second r.sid_second r.step
