open Mvm

type t = {
  id : string;
  descr : string;
  holds : Interp.result -> bool;
}

type catalog = {
  app : string;
  failure_sig : Failure.t -> bool;
  causes : t list;
}

let make ~id ~descr holds = { id; descr; holds }

let observed catalog (r : Interp.result) =
  match r.failure with
  | Some f when catalog.failure_sig f ->
    List.filter (fun c -> c.holds r) catalog.causes
  | Some _ | None -> []

(* the first cause that holds: the ones after it are not evaluated *)
let primary catalog (r : Interp.result) =
  match r.failure with
  | Some f when catalog.failure_sig f -> List.find_opt (fun c -> c.holds r) catalog.causes
  | Some _ | None -> None

let n_causes catalog = List.length catalog.causes
