open Mvm

(* Shared machinery of the search engines: the decision odometers,
   instrumented worlds, and single-attempt executors that Search builds
   its engines from. *)

(* ------------------------------------------------------------------ *)
(* odometer *)

let advance prefix sizes =
  (* little-endian counting over the decision digits: bump the shallowest
     digit with room and reset everything below it. Varying the earliest
     decisions first matters for schedule search — races live in the early
     interleaving, and a deepest-first order would only permute the tail
     of the run within any realistic budget. *)
  let sizes = Array.of_list sizes in
  let n = Array.length sizes in
  let digits = Array.make (max n 0) 0 in
  Array.blit prefix 0 digits 0 (min (Array.length prefix) n);
  let rec bump i =
    if i >= n then None
    else if digits.(i) + 1 < sizes.(i) then begin
      digits.(i) <- digits.(i) + 1;
      Array.fill digits 0 i 0;
      Some digits
    end
    else bump (i + 1)
  in
  bump 0

(* ------------------------------------------------------------------ *)
(* attempt results *)

type early = Ran | Early_clamped

type probe = {
  result : Interp.result;
  sizes : int list;
      (* discovered digit fan-outs, shallowest first, already truncated
         for the clamped case so [advance] skips the dead branch *)
  early : early;
}

let reason_clamped = "clamped: decision fan-out shrank below prefix digit"

(* ------------------------------------------------------------------ *)
(* input odometer: the k-th input of the run takes the domain value at
   the position given by the prefix (0 beyond it); the sizes of visited
   domains are collected so the caller can advance the odometer. *)

let odometer_world prefix sizes =
  let base = World.round_robin () in
  let k = ref 0 in
  {
    base with
    World.name = "enumerate-inputs";
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        let n = max 1 (List.length domain) in
        let pos = if !k < Array.length prefix then prefix.(!k) else 0 in
        sizes := n :: !sizes;
        incr k;
        match List.nth_opt domain pos with
        | Some v -> v
        | None -> ( match domain with [] -> Value.unit | v :: _ -> v));
  }

let exec_inputs ?wall ~budget:(max_steps : int) ~prefix labeled =
  let sizes = ref [] in
  let world = odometer_world prefix sizes in
  let result = Interp.run ~max_steps ?cancel:wall labeled world in
  { result; sizes = List.rev !sizes; early = Ran }

(* ------------------------------------------------------------------ *)
(* schedule odometer: decision k picks the prefix[k]-th candidate (sorted
   by tid); past the prefix, the first candidate. [sizes] collects the
   fan-out of every decision point of the run so [advance] can bump the
   shallowest digit with room. Decisions with a single candidate are not
   digits: they cannot be varied.

   Clamping: if a prefix digit meets a smaller fan-out than when the
   prefix was generated, the schedule it denotes duplicates the one with
   digit [n-1]. The run is cut short and the digit's size is recorded as
   the *actual* fan-out, so [advance] carries past it instead of
   re-exploring the same schedule under two prefixes. *)

(* The interpreter builds its candidate list in ascending-tid order, so
   decisions index the candidate list directly — the old List.map |>
   List.sort here (and even a closure-free tid-list copy) was a
   measurable per-step allocation on schedule-heavy searches. *)
let nth_tid cands pos = (List.nth cands pos).World.tid

let schedule_world ~prefix ~sizes ~stop =
  let k = ref 0 in
  let plen = Array.length prefix in
  {
    World.name = "dfs-schedules";
    pick_thread =
      (fun ~step:_ cands ->
        match cands with
        | [ only ] -> only.World.tid
        | _ ->
          let n = List.length cands in
          let i = !k in
          incr k;
          sizes := n :: !sizes;
          if i < plen then begin
            let pos = prefix.(i) in
            if pos >= n then begin
              stop := Some reason_clamped;
              nth_tid cands 0
            end
            else nth_tid cands pos
          end
          else nth_tid cands 0);
    pick_input =
      (fun ~step:_ ~tid:_ ~chan:_ ~domain ->
        match domain with [] -> Value.unit | v :: _ -> v);
    on_read = (fun ~step:_ ~tid:_ ~sid:_ ~region:_ ~index:_ ~actual -> actual);
    on_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ ~actual -> actual);
    on_try_recv = (fun ~step:_ ~tid:_ ~sid:_ ~chan:_ -> World.Default);
    forcing = World.Never;
  }

let exec_schedule ?wall ~budget:(max_steps : int) ~prefix labeled =
  let sizes = ref [] in
  let stop = ref None in
  let world = schedule_world ~prefix ~sizes ~stop in
  let result =
    Interp.run ~max_steps ~abort:(fun _ -> !stop) ?cancel:wall labeled world
  in
  let early = match !stop with Some _ -> Early_clamped | None -> Ran in
  { result; sizes = List.rev !sizes; early }

(* ------------------------------------------------------------------ *)
(* classification: a clamped probe is not an attempt *)

type verdict =
  | Attempt of Interp.result * int list  (** judge it; advance with sizes *)
  | Skipped of { steps : int; sizes : int list }
      (** clamped: uncounted, advance with the truncated sizes *)

let classify probe =
  match probe.early with
  | Early_clamped ->
    Skipped { steps = probe.result.Interp.steps; sizes = probe.sizes }
  | Ran -> Attempt (probe.result, probe.sizes)
