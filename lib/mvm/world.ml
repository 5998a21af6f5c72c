type cand = { tid : int; mutable sid : int; mutable fname : string }

let cand ~tid ~sid ~fname = { tid; sid; fname }

(* a thread changes function far less often than it steps: writing the
   name only when it moves spares the write barrier *)
let set_site c ~sid ~fname =
  c.sid <- sid;
  if c.fname != fname then c.fname <- fname

type t = {
  pick_thread : step:int -> cand array -> int -> int;
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
    pick_thread = (fun ~step:_ _ n -> Prng.int rng n);
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
   where the probability mass sits. A hot pick draws the k-th hot
   candidate, the draw a pick from the filtered list would make. *)
let prioritized ~seed ~prefer =
  let rng = Prng.create seed in
  let rec nth_hot cands k i =
    if not (prefer cands.(i)) then nth_hot cands k (i + 1)
    else if k = 0 then i
    else nth_hot cands (k - 1) (i + 1)
  in
  {
    pick_thread =
      (fun ~step:_ cands n ->
        let hot = ref 0 in
        for i = 0 to n - 1 do
          if prefer cands.(i) then incr hot
        done;
        if !hot = 0 || Prng.int rng 4 = 0 then Prng.int rng n
        else nth_hot cands (Prng.int rng !hot) 0);
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

(* Candidates come in thread order: the index of the first one from [i]
   on whose tid is past [last], or 0 when none is. *)
let rec first_after last cands n i =
  if i = n then 0 else if cands.(i).tid > last then i else first_after last cands n (i + 1)

let round_robin () =
  let last = ref (-1) in
  {
    pick_thread =
      (fun ~step:_ cands n ->
        let i = first_after !last cands n 0 in
        last := cands.(i).tid;
        i);
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        match domain with [] -> Value.unit | v :: _ -> v);
    on_read = identity_read;
    on_recv = identity_recv;
    on_try_recv = default_try_recv;
    forcing = Never;
  }
