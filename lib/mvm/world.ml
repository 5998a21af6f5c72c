type cand = { tid : int; mutable sid : int; mutable fname : string }

let cand ~tid ~sid ~fname = { tid; sid; fname }

(* a thread changes function far less often than it steps: writing the
   name only when it moves spares the write barrier *)
let set_site c ~sid ~fname =
  c.sid <- sid;
  if c.fname != fname then c.fname <- fname

type t = {
  name : string;
  pick_thread : step:int -> cand list -> int;
  pick_input : step:int -> tid:int -> chan:string -> domain:Value.t list -> Value.t;
  on_read : step:int -> tid:int -> sid:int -> region:string ->
    index:int option -> actual:Value.tagged -> Value.tagged;
  on_recv : step:int -> tid:int -> sid:int -> chan:string ->
    actual:Value.tagged -> Value.tagged;
  on_try_recv : step:int -> tid:int -> sid:int -> chan:string ->
    try_recv_decision;
  forcing : forcing;
}

and try_recv_decision = Default | Force_fail | Force_value of Value.tagged
and forcing = Never | Own_steps | Anything

let identity_read ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual = actual
let identity_recv ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual = actual
let default_try_recv ~step:_ ~tid:_ ~sid:_ ~chan:_ = Default

let random ~seed =
  let rng = Prng.create seed in
  {
    name = Printf.sprintf "random(seed=%d)" seed;
    pick_thread =
      (fun ~step:_ cands ->
        match cands with
        | [] -> invalid_arg "World.random: no candidates"
        | _ -> (Prng.pick rng cands).tid);
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        match domain with
        | [] -> Value.unit
        | _ -> Prng.pick rng domain);
    on_read = identity_read;
    on_recv = identity_recv;
    on_try_recv = default_try_recv;
    forcing = Never;
  }

(* Biased, not deterministic: a hot candidate wins 3 draws out of 4, the
   fourth falls back to a uniform pick over everyone. Keeping every
   schedule reachable preserves search completeness; the bias only shifts
   where the probability mass sits. *)
let prioritized ~seed ~prefer =
  let rng = Prng.create seed in
  {
    name = Printf.sprintf "prioritized(seed=%d)" seed;
    pick_thread =
      (fun ~step:_ cands ->
        match cands with
        | [] -> invalid_arg "World.prioritized: no candidates"
        | _ -> (
          match List.filter prefer cands with
          | [] -> (Prng.pick rng cands).tid
          | hot ->
            let pool = if Prng.int rng 4 > 0 then hot else cands in
            (Prng.pick rng pool).tid));
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        match domain with
        | [] -> Value.unit
        | _ -> Prng.pick rng domain);
    on_read = identity_read;
    on_recv = identity_recv;
    on_try_recv = default_try_recv;
    forcing = Never;
  }

let round_robin () =
  let last = ref (-1) in
  {
    name = "round-robin";
    pick_thread =
      (fun ~step:_ cands ->
        match cands with
        | [] -> invalid_arg "World.round_robin: no candidates"
        | _ ->
          let sorted = List.sort (fun a b -> compare a.tid b.tid) cands in
          let next =
            match List.find_opt (fun c -> c.tid > !last) sorted with
            | Some c -> c.tid
            | None -> (List.hd sorted).tid
          in
          last := next;
          next);
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        match domain with [] -> Value.unit | v :: _ -> v);
    on_read = identity_read;
    on_recv = identity_recv;
    on_try_recv = default_try_recv;
    forcing = Never;
  }
