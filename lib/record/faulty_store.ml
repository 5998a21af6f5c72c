(* Deterministic hostile storage.

   Wraps a base {!Store.t} and injects faults from a reproducible plan:
   the same plan over the same operation sequence produces exactly the
   same failures, short writes and latency spikes, whatever the wall
   clock or scheduler does. Decisions are pure hashes ({!Mvm.Prng.coin})
   of (plan seed, fault salt, operation index), the coin {!Mvm.Fault}
   draws for the execution-level worlds.

   The fault vocabulary matches what production recorders die of:

     enospc:N        the disk fills after N payload bytes; writes past
                     the budget persist a prefix and fail permanently
     torn:K[:F]      operation #K, a write, persists only fraction F
                     (default 0.5) of its payload, then fails permanently
     fsyncfail:K[:t] operation #K, an fsync, fails (permanently, or
                     [:t] transiently)
     renamefail:K[:t] operation #K, a rename, fails likewise
     flaky:P         each write fails with probability P before
                     persisting anything — the transient blips Retry
                     absorbs
     slow:A-B:MS     operations #A..#B each stall MS milliseconds

   Operations are the writes, fsyncs and renames that reach the wrapper
   (a retried one counts again), numbered from 0 in order; removes are
   not counted. *)

type fault =
  | Disk_full of { after_bytes : int }
  | Torn of { at_op : int; keep : float }
  | Fsync_fail of { at_op : int; transient : bool }
  | Rename_fail of { at_op : int; transient : bool }
  | Flaky of { prob : float }
  | Slow of { from_op : int; until_op : int; ms : float }

type plan = { seed : int; faults : fault list }

let make ?(seed = 0) faults = { seed; faults }

(* ------------------------------------------------------------------ *)
(* rendering / parsing (the CLI's --io-faults syntax) *)

let fault_to_string = function
  | Disk_full { after_bytes } -> Printf.sprintf "enospc:%d" after_bytes
  | Torn { at_op; keep } -> Printf.sprintf "torn:%d:%g" at_op keep
  | Fsync_fail { at_op; transient } ->
    Printf.sprintf "fsyncfail:%d%s" at_op (if transient then ":t" else "")
  | Rename_fail { at_op; transient } ->
    Printf.sprintf "renamefail:%d%s" at_op (if transient then ":t" else "")
  | Flaky { prob } -> Printf.sprintf "flaky:%g" prob
  | Slow { from_op; until_op; ms } ->
    Printf.sprintf "slow:%d-%d:%g" from_op until_op ms

let to_string plan =
  String.concat ","
    (Printf.sprintf "seed=%d" plan.seed :: List.map fault_to_string plan.faults)

let parse_num clause s =
  match int_of_string_opt s with
  | Some n when n >= 0 -> Ok n
  | _ -> Error (Printf.sprintf "bad count %S in io-fault clause %S" s clause)

let parse_frac clause s =
  match float_of_string_opt s with
  | Some f when f >= 0. && f <= 1. -> Ok f
  | _ -> Error (Printf.sprintf "bad fraction %S in io-fault clause %S" s clause)

(* Every legal clause shape, quoted verbatim in the unknown-name error:
   a mistyped clause must fail loudly with the whole vocabulary in view,
   never be skipped or folded into a vague message. *)
let valid_clauses =
  [
    "enospc:BYTES";
    "torn:OP[:KEEP]";
    "fsyncfail:OP[:t]";
    "renamefail:OP[:t]";
    "flaky:PROB";
    "slow:FROM-TO:MS";
    "seed=N";
  ]

let parse_clause clause =
  let ( let* ) = Result.bind in
  let malformed () =
    Error
      (Printf.sprintf "malformed io-fault clause %S (expected forms: %s)"
         clause
         (String.concat ", " valid_clauses))
  in
  match String.split_on_char ':' clause with
  | "enospc" :: rest -> (
    match rest with
    | [ n ] ->
      let* after_bytes = parse_num clause n in
      Ok (`Fault (Disk_full { after_bytes }))
    | _ -> malformed ())
  | "torn" :: rest -> (
    match rest with
    | [ k ] ->
      let* at_op = parse_num clause k in
      Ok (`Fault (Torn { at_op; keep = 0.5 }))
    | [ k; f ] ->
      let* at_op = parse_num clause k in
      let* keep = parse_frac clause f in
      Ok (`Fault (Torn { at_op; keep }))
    | _ -> malformed ())
  | "fsyncfail" :: rest -> (
    match rest with
    | [ k ] ->
      let* at_op = parse_num clause k in
      Ok (`Fault (Fsync_fail { at_op; transient = false }))
    | [ k; "t" ] ->
      let* at_op = parse_num clause k in
      Ok (`Fault (Fsync_fail { at_op; transient = true }))
    | _ -> malformed ())
  | "renamefail" :: rest -> (
    match rest with
    | [ k ] ->
      let* at_op = parse_num clause k in
      Ok (`Fault (Rename_fail { at_op; transient = false }))
    | [ k; "t" ] ->
      let* at_op = parse_num clause k in
      Ok (`Fault (Rename_fail { at_op; transient = true }))
    | _ -> malformed ())
  | "flaky" :: rest -> (
    match rest with
    | [ p ] ->
      let* prob = parse_frac clause p in
      Ok (`Fault (Flaky { prob }))
    | _ -> malformed ())
  | "slow" :: rest -> (
    match rest with
    | [ range; ms ] -> (
      let* ms =
        match float_of_string_opt ms with
        | Some f when f >= 0. -> Ok f
        | _ ->
          Error
            (Printf.sprintf "bad latency %S in io-fault clause %S" ms clause)
      in
      match String.index_opt range '-' with
      | Some k ->
        let* from_op = parse_num clause (String.sub range 0 k) in
        let* until_op =
          parse_num clause
            (String.sub range (k + 1) (String.length range - k - 1))
        in
        Ok (`Fault (Slow { from_op; until_op; ms }))
      | None ->
        let* at = parse_num clause range in
        Ok (`Fault (Slow { from_op = at; until_op = at; ms })))
    | _ -> malformed ())
  | [ kv ] when String.length kv > 5 && String.sub kv 0 5 = "seed=" ->
    let* seed = parse_num clause (String.sub kv 5 (String.length kv - 5)) in
    Ok (`Seed seed)
  | name :: _ ->
    Error
      (Printf.sprintf "unknown io-fault clause %S in %S; valid clauses: %s"
         name clause
         (String.concat ", " valid_clauses))
  | [] -> malformed ()

let of_string s =
  let clauses =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let rec go seed acc = function
    | [] -> Ok { seed; faults = List.rev acc }
    | clause :: rest -> (
      match parse_clause clause with
      | Ok (`Seed n) -> go n acc rest
      | Ok (`Fault f) -> go seed (f :: acc) rest
      | Error e -> Error e)
  in
  go 0 [] clauses

(* ------------------------------------------------------------------ *)
(* deterministic coins: the stateless hash Mvm.Fault draws from too *)

let salt_flaky = 11

let coin plan ~salt ~op = Mvm.Prng.coin plan.seed [ salt; op ]

(* ------------------------------------------------------------------ *)
(* the wrapper *)

type stats = {
  ops : int;  (** operations that reached the wrapper *)
  bytes_written : int;  (** payload bytes that reached the base store *)
  bytes_lost : int;  (** payload bytes discarded by short writes *)
  injected : int;  (** operations that failed by injection *)
  injected_transient : int;  (** of those, transient ones *)
  stalled_ms : float;  (** total injected latency *)
  never_fired : fault list;  (** indexed clauses that have not fired *)
}

let zero_stats =
  {
    ops = 0;
    bytes_written = 0;
    bytes_lost = 0;
    injected = 0;
    injected_transient = 0;
    stalled_ms = 0.;
    never_fired = [];
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d ops, %d bytes written, %d lost to short writes, %d fault(s) injected \
     (%d transient), %.1f ms stalled"
    s.ops s.bytes_written s.bytes_lost s.injected s.injected_transient
    s.stalled_ms;
  match s.never_fired with
  | [] -> ()
  | fs ->
    Format.fprintf ppf ", never fired: %s"
      (String.concat " " (List.map fault_to_string fs))

type state = { mutable op : int; mutable st : stats }

let err st ~op ~path ~kind ~transient =
  st.st <-
    {
      st.st with
      injected = st.st.injected + 1;
      injected_transient = st.st.injected_transient + (if transient then 1 else 0);
    };
  Error { Store.e_op = op; e_path = path; e_kind = kind; transient }

(* a short write persists [keep] bytes of the payload through the base
   store before the failure surfaces — a torn tail on disk, exactly what
   the CRC-and-trailer format must survive *)
let short_write st base ~path ~payload ~keep ~kind =
  let kept = String.sub payload 0 (min keep (String.length payload)) in
  let lost = String.length payload - String.length kept in
  ignore (base.Store.write path kept);
  st.st <-
    {
      st.st with
      bytes_written = st.st.bytes_written + String.length kept;
      bytes_lost = st.st.bytes_lost + lost;
    };
  err st ~op:Store.Write ~path ~kind ~transient:false

let wrap plan (base : Store.t) =
  let st = { op = 0; st = zero_stats } in
  (* which of the plan's clauses have failed their operation: a [torn],
     [fsyncfail] or [renamefail] whose index lands on an operation of
     another kind never fires, and the stats say so instead of the plan
     weakening silently *)
  let clauses = Array.of_list plan.faults in
  let fired = Array.make (Array.length clauses) false in
  let stalls n =
    List.fold_left
      (fun acc -> function
        | Slow { from_op; until_op; ms } when n >= from_op && n <= until_op ->
          acc +. ms
        | _ -> acc)
      0. plan.faults
  in
  let tick () =
    let n = st.op in
    st.op <- n + 1;
    st.st <- { st.st with ops = st.st.ops + 1 };
    let ms = stalls n in
    if ms > 0. then begin
      st.st <- { st.st with stalled_ms = st.st.stalled_ms +. ms };
      Unix.sleepf (ms /. 1000.)
    end;
    n
  in
  (* the first clause of a kind at operation [n], marked fired *)
  let at n select =
    let rec go k =
      if k = Array.length clauses then None
      else
        match select clauses.(k) with
        | Some (at_op, v) when at_op = n ->
          fired.(k) <- true;
          Some v
        | _ -> go (k + 1)
    in
    go 0
  in
  let torn_at n =
    at n (function Torn { at_op; keep } -> Some (at_op, keep) | _ -> None)
  in
  let flaky_prob =
    List.fold_left
      (fun acc -> function Flaky { prob } -> Float.max acc prob | _ -> acc)
      0. plan.faults
  in
  let disk_budget =
    List.fold_left
      (fun acc -> function
        | Disk_full { after_bytes } ->
          Some (match acc with None -> after_bytes | Some b -> min b after_bytes)
        | _ -> acc)
      None plan.faults
  in
  let write path payload =
    let n = tick () in
    if flaky_prob > 0. && coin plan ~salt:salt_flaky ~op:n < flaky_prob then
      (* a transient blip: nothing persisted, retry is safe *)
      err st ~op:Store.Write ~path ~kind:(Store.Eio "injected transient fault")
        ~transient:true
    else
      match torn_at n with
      | Some keep ->
        short_write st base ~path ~payload
          ~keep:(int_of_float (keep *. float_of_int (String.length payload)))
          ~kind:(Store.Eio "injected torn write")
      | None -> (
        match disk_budget with
        | Some budget when st.st.bytes_written + String.length payload > budget
          ->
          let room = max 0 (budget - st.st.bytes_written) in
          short_write st base ~path ~payload ~keep:room ~kind:Store.Enospc
        | _ -> (
          match base.Store.write path payload with
          | Ok () ->
            st.st <-
              {
                st.st with
                bytes_written = st.st.bytes_written + String.length payload;
              };
            Ok ()
          | Error e -> Error e))
  in
  let plain_op op path at_fault k =
    let n = tick () in
    match at_fault n with
    | Some transient ->
      err st ~op ~path ~kind:(Store.Eio "injected fault") ~transient
    | None -> k ()
  in
  let fsync_at n =
    at n (function
      | Fsync_fail { at_op; transient } -> Some (at_op, transient)
      | _ -> None)
  in
  let rename_at n =
    at n (function
      | Rename_fail { at_op; transient } -> Some (at_op, transient)
      | _ -> None)
  in
  let stats () =
    let never_fired =
      List.filteri
        (fun k -> function
          | Torn _ | Fsync_fail _ | Rename_fail _ -> not fired.(k)
          | Disk_full _ | Flaky _ | Slow _ -> false)
        plan.faults
    in
    { st.st with never_fired }
  in
  let store =
    {
      Store.name = Printf.sprintf "%s+io-faults(%s)" base.Store.name (to_string plan);
      write;
      fsync = (fun path -> plain_op Store.Fsync path fsync_at (fun () -> base.Store.fsync path));
      rename =
        (fun src dst ->
          plain_op Store.Rename dst rename_at (fun () -> base.Store.rename src dst));
      remove = base.Store.remove;
    }
  in
  (store, stats)
