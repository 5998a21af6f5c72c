(* The reference sync-schedule oracle: the string-keyed form the
   library's [Oracle.sync] replaced, kept as its differential reference.

   Per-object orders live in tables keyed by channel and lock name; the
   scheduler filters candidates through a site-keyed hash table, and the
   abort hook looks every send, receive and lock event up by its object's
   name. [Oracle.sync] must make the same pick, give the same [on_try_recv]
   answer and reach the same abort verdict at every event, drawing the
   same numbers from the same seed. *)

open Mvm
open Ddet_record
open Ddet_replay

let rec count_where ok n = function
  | [] -> n
  | c :: rest -> count_where ok (if ok c then n + 1 else n) rest

let rec nth_where ok k = function
  | [] -> invalid_arg "Ref_sync.nth_where"
  | c :: rest ->
    if not (ok c) then nth_where ok k rest
    else if k = 0 then c
    else nth_where ok (k - 1) rest

(* the tid of [Prng.pick rng (List.filter ok cands)], or -1, drawing
   nothing, when no candidate is [ok] *)
let pick_where rng ok cands =
  match count_where ok 0 cands with
  | 0 -> -1
  | n -> (nth_where ok (Prng.int rng n) cands).World.tid

let input_queues log =
  let tbl = Tbl.Int.create 8 in
  List.iter
    (function
      | Log.Input { tid; value; _ } -> (
        match Tbl.Int.find_opt tbl tid with
        | Some r -> r := value :: !r
        | None -> Tbl.Int.replace tbl tid (ref [ value ]))
      | _ -> ())
    log.Log.entries;
  Tbl.Int.iter (fun _ r -> r := List.rev !r) tbl;
  tbl

let pop tbl tid =
  match Tbl.Int.find_opt tbl tid with
  | Some ({ contents = v :: tl } as r) ->
    r := tl;
    Some v
  | Some { contents = [] } | None -> None

let sync ~seed log =
  let rng = Prng.create seed in
  let sends = Tbl.Str.create 8
  and recvs = Tbl.Str.create 8
  and locks = Tbl.Str.create 8
  and spawns = ref [] in
  let order_of tbl key =
    match Tbl.Str.find_opt tbl key with
    | Some r -> r
    | None ->
      let r = ref [] in
      Tbl.Str.replace tbl key r;
      r
  in
  let site_order = Tbl.Int.create 32 in
  List.iter
    (fun (tid, sid, op) ->
      let push r = r := (tid, sid) :: !r in
      let hold r =
        push r;
        Tbl.Int.replace site_order sid r
      in
      match op with
      | Log.Op_send c -> hold (order_of sends c)
      | Log.Op_spawn -> hold spawns
      | Log.Op_lock m -> hold (order_of locks m)
      | Log.Op_recv c -> push (order_of recvs c)
      | Log.Op_unlock _ -> ())
    (Log.sync_entries log);
  let in_log_order _ r = r := List.rev !r in
  List.iter (Tbl.Str.iter in_log_order) [ sends; recvs; locks ];
  in_log_order () spawns;
  let violated_set = ref false in
  let advance r (e : Event.t) =
    match !r with
    | (t, s) :: tl when t = e.Event.tid && s = e.Event.sid -> r := tl
    | _ -> violated_set := true
  in
  let advance_on tbl key e =
    match Tbl.Str.find_opt tbl key with
    | Some r -> advance r e
    | None -> violated_set := true
  in
  let abort (e : Event.t) =
    (match e.Event.kind with
    | Event.Msg_send io -> advance_on sends io.Event.chan e
    | Event.Msg_recv io -> advance_on recvs io.Event.chan e
    | Event.Spawned _ -> advance spawns e
    | Event.Lock_acq m -> advance_on locks m e
    | Event.Step | Event.Read _ | Event.Write _ | Event.In _ | Event.Out _
    | Event.Lock_rel _ | Event.Crashed _ ->
      ());
    if !violated_set then Some "sync-order-divergence" else None
  in
  let inputs = input_queues log in
  let allowed (c : World.cand) =
    match Tbl.Int.find_opt site_order c.World.sid with
    | Some { contents = (t, s) :: _ } -> t = c.World.tid && s = c.World.sid
    | Some { contents = [] } -> false
    | None -> true
  in
  let world =
    {
      World.pick_thread =
        (fun ~step:_ cands ->
          let t = pick_where rng allowed cands in
          if t >= 0 then t
          else begin
            violated_set := true;
            (Prng.pick rng cands).World.tid
          end);
      pick_input =
        (fun ~step:_ ~tid ~chan:_ ~domain ->
          match pop inputs tid with
          | Some v -> v
          | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
      on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
      on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
      on_try_recv =
        (fun ~step:_ ~tid ~sid:_ ~chan ->
          match Tbl.Str.find_opt recvs chan with
          | Some { contents = (t, _) :: _ } when t = tid -> World.Default
          | Some _ | None -> World.Force_fail);
      forcing = World.Never;
    }
  in
  {
    Oracle.world;
    abort;
    violated = (fun () -> !violated_set);
    diverged = (fun () -> None);
  }
