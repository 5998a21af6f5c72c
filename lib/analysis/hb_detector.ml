open Mvm

(* Vector clocks as growable int arrays indexed by thread id. *)
module Vc = struct
  type t = int array ref

  let create () = ref (Array.make 4 0)

  let ensure vc tid =
    let a = !vc in
    if tid >= Array.length a then begin
      let a' = Array.make (max (tid + 1) (2 * Array.length a)) 0 in
      Array.blit a 0 a' 0 (Array.length a);
      vc := a'
    end

  let get vc tid =
    let a = !vc in
    if tid < Array.length a then a.(tid) else 0

  let tick vc tid =
    ensure vc tid;
    !vc.(tid) <- !vc.(tid) + 1

  let copy vc = ref (Array.copy !vc)

  (* a <= b pointwise *)
  let leq a b =
    let aa = !a in
    let ok = ref true in
    Array.iteri (fun i v -> if v > get b i then ok := false) aa;
    !ok

  let join dst src =
    ensure dst (Array.length !src - 1);
    Array.iteri (fun i v -> if v > !dst.(i) then !dst.(i) <- v) !src
end

type access_record = {
  a_vc : Vc.t;  (** snapshot at the access *)
  a_tid : int;
  a_sid : int;
}

type loc_state = {
  mutable last_write : access_record option;
  mutable last_reads : (int * access_record) list;  (** per reading thread *)
}

type t = {
  threads : (int, Vc.t) Hashtbl.t;
  locks : (string, Vc.t) Hashtbl.t;
  messages : (string, Vc.t Queue.t) Hashtbl.t;
  locs : (string * int option, loc_state) Hashtbl.t;
  found : Race_detector.report Vec.t;
  seen_pairs : (string * int option * int * int, unit) Hashtbl.t;
  mutable ops : int;
}

let create () =
  {
    threads = Hashtbl.create 8;
    locks = Hashtbl.create 8;
    messages = Hashtbl.create 8;
    locs = Hashtbl.create 64;
    found = Vec.create ();
    seen_pairs = Hashtbl.create 32;
    ops = 0;
  }

let thread_vc t tid =
  match Hashtbl.find_opt t.threads tid with
  | Some vc -> vc
  | None ->
    let vc = Vc.create () in
    Vc.tick vc tid;
    Hashtbl.replace t.threads tid vc;
    vc

let loc_state t key =
  match Hashtbl.find_opt t.locs key with
  | Some s -> s
  | None ->
    let s = { last_write = None; last_reads = [] } in
    Hashtbl.replace t.locs key s;
    s

let report t (e : Event.t) region index (prev : access_record) =
  let key = (region, index, prev.a_sid, e.Event.sid) in
  if Hashtbl.mem t.seen_pairs key then None
  else begin
    Hashtbl.replace t.seen_pairs key ();
    let r =
      {
        Race_detector.region;
        index;
        sid_first = prev.a_sid;
        sid_second = e.Event.sid;
        tid_first = prev.a_tid;
        tid_second = e.Event.tid;
        step = e.Event.step;
      }
    in
    Vec.push t.found r;
    Some r
  end

let observe t (e : Event.t) =
  let tid = e.Event.tid in
  let vc = thread_vc t tid in
  t.ops <- t.ops + 1;
  Vc.tick vc tid;
  match e.Event.kind with
  | Event.Spawned { child; _ } ->
    (* the child starts causally after the parent's spawn *)
    let cvc = thread_vc t child in
    t.ops <- t.ops + 1;
    Vc.join cvc vc;
    Vc.tick cvc child;
    None
  | Event.Lock_acq m ->
    (match Hashtbl.find_opt t.locks m with
    | Some lvc ->
      t.ops <- t.ops + 1;
      Vc.join vc lvc
    | None -> ());
    None
  | Event.Lock_rel m ->
    t.ops <- t.ops + 1;
    Hashtbl.replace t.locks m (Vc.copy vc);
    None
  | Event.Msg_send io ->
    let q =
      match Hashtbl.find_opt t.messages io.Event.chan with
      | Some q -> q
      | None ->
        let q = Queue.create () in
        Hashtbl.replace t.messages io.Event.chan q;
        q
    in
    t.ops <- t.ops + 1;
    Queue.push (Vc.copy vc) q;
    None
  | Event.Msg_recv io ->
    (match Hashtbl.find_opt t.messages io.Event.chan with
    | Some q when not (Queue.is_empty q) ->
      t.ops <- t.ops + 1;
      Vc.join vc (Queue.pop q)
    | Some _ | None -> ());
    None
  | Event.Read a ->
    let key = (a.Event.region, a.Event.index) in
    let s = loc_state t key in
    let me = { a_vc = Vc.copy vc; a_tid = tid; a_sid = e.Event.sid } in
    t.ops <- t.ops + 1;
    let race =
      match s.last_write with
      | Some w when w.a_tid <> tid && not (Vc.leq w.a_vc vc) ->
        report t e a.Event.region a.Event.index w
      | _ -> None
    in
    s.last_reads <- (tid, me) :: List.remove_assoc tid s.last_reads;
    race
  | Event.Write a ->
    let key = (a.Event.region, a.Event.index) in
    let s = loc_state t key in
    let me = { a_vc = Vc.copy vc; a_tid = tid; a_sid = e.Event.sid } in
    t.ops <- t.ops + 1;
    let race_with_write =
      match s.last_write with
      | Some w when w.a_tid <> tid && not (Vc.leq w.a_vc vc) ->
        report t e a.Event.region a.Event.index w
      | _ -> None
    in
    let race_with_read =
      match race_with_write with
      | Some _ as r -> r
      | None ->
        List.fold_left
          (fun acc (rt, rr) ->
            match acc with
            | Some _ -> acc
            | None ->
              if rt <> tid && not (Vc.leq rr.a_vc vc) then
                report t e a.Event.region a.Event.index rr
              else None)
          None s.last_reads
    in
    s.last_write <- Some me;
    s.last_reads <- [];
    race_with_read
  | Event.Step | Event.In _ | Event.Out _ | Event.Crashed _ -> None

let reports t = Vec.to_list t.found

let vc_operations t = t.ops
