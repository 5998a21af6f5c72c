(* Bounded retry with deterministic backoff.

   The contract rides on Store.error.transient: a transient error
   persisted nothing, so re-issuing the identical operation is safe and
   worth a few attempts; a permanent error may have torn the target, so
   it surfaces immediately as a typed failure. Backoff is a fixed
   geometric schedule — deterministic, so a fault plan always yields the
   same attempt sequence. *)

let max_retries = 3 (* extra attempts after the first *)
let first_backoff_s = 0.001 (* sleep before the first retry, doubling *)
let max_backoff_s = 0.05 (* per-sleep cap, bounding total stall *)

type failure = {
  error : Store.error;  (* the error that ended the attempt sequence *)
  attempts : int;  (* attempts made, including the first *)
  gave_up : bool;  (* true: transient but retry budget exhausted *)
}

let pp_failure ppf f =
  Format.fprintf ppf "%a after %d attempt%s%s" Store.pp_error f.error f.attempts
    (if f.attempts = 1 then "" else "s")
    (if f.gave_up then " (retry budget exhausted)" else "")

let failure_to_string f = Format.asprintf "%a" pp_failure f

let run f =
  let rec go attempt backoff =
    match f () with
    | Ok v -> Ok v
    | Error (e : Store.error) when e.transient && attempt <= max_retries ->
      Ddet_obs.Tracer.count "store.retries" 1;
      Unix.sleepf (Float.min backoff max_backoff_s);
      go (attempt + 1) (backoff *. 2.)
    | Error e ->
      Ddet_obs.Tracer.count "store.give_ups" 1;
      Error { error = e; attempts = attempt; gave_up = e.Store.transient }
  in
  go 1 first_backoff_s

(* After retries are exhausted or a permanent error surfaces, the
   failure crosses back into the Store error type with transient:=false
   — downstream writers must not retry what Retry already gave up on. *)
let as_store_error f = { f.error with Store.transient = false }

let store (base : Store.t) =
  let retrying f = Result.map_error as_store_error (run f) in
  {
    base with
    Store.name = Printf.sprintf "%s+retry(%d)" base.Store.name max_retries;
    write = (fun path s -> retrying (fun () -> base.Store.write path s));
    fsync = (fun path -> retrying (fun () -> base.Store.fsync path));
    rename = (fun src dst -> retrying (fun () -> base.Store.rename src dst));
  }
