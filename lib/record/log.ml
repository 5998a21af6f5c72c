open Mvm

type read_kind = Mem | Msg

type sync_op =
  | Op_send of string
  | Op_recv of string
  | Op_spawn
  | Op_lock of string
  | Op_unlock of string

type entry =
  | Sched of { tid : int; sid : int }
  | Input of { tid : int; chan : string; value : Value.t }
  | Read_val of { tid : int; sid : int; kind : read_kind; value : Value.t }
  | Output of { chan : string; value : Value.t }
  | Sync of { tid : int; sid : int; op : sync_op }
  | Cp_sched of { tid : int; sid : int }
  | Cp_input of { tid : int; sid : int; chan : string; value : Value.t }
  | Failure_desc of Failure.t
  | Flight_note of { buffered : int }
  | Mark of string
  | Govern of { step : int; level : int; reason : string }

type t = {
  recorder : string;
  entries : entry list;
  base_steps : int;
  failure : Failure.t option;
  faults : Fault.plan option;
}

let make ?faults ~recorder ~entries ~base_steps ~failure () =
  { recorder; entries; base_steps; failure; faults }

let collect f t = List.filter_map f t.entries

let sched_points t =
  collect (function Sched { tid; sid } -> Some (tid, sid) | _ -> None) t

let cp_sched_points t =
  collect (function Cp_sched { tid; sid } -> Some (tid, sid) | _ -> None) t

let sync_entries t =
  collect (function Sync { tid; sid; op } -> Some (tid, sid, op) | _ -> None) t

let inputs_for t tid =
  collect
    (function
      | Input { tid = t'; value; _ } when t' = tid -> Some value | _ -> None)
    t

let cp_inputs_for t tid =
  collect
    (function
      | Cp_input { tid = t'; sid; value; _ } when t' = tid -> Some (sid, value)
      | _ -> None)
    t

let reads_for t tid =
  collect
    (function
      | Read_val { tid = t'; sid; kind; value } when t' = tid ->
        Some (sid, kind, value)
      | _ -> None)
    t

let outputs t =
  let tbl : (string, Value.t list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (function
      | Output { chan; value } ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl chan) in
        Hashtbl.replace tbl chan (value :: prev)
      | _ -> ())
    t.entries;
  Hashtbl.fold (fun chan vs acc -> (chan, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Degraded windows, derived from the Govern transition entries: each
   window is [(start_step, end_step, level)] with level > 0, closed by
   the next transition or the end of the run. The fidelity metrics
   report a DF floor for them; replay searches the whole run. *)
let governed_windows t =
  let rec go acc open_w = function
    | [] -> (
      match open_w with
      | Some (s, l) -> List.rev ((s, t.base_steps, l) :: acc)
      | None -> List.rev acc)
    | Govern { step; level; _ } :: rest -> (
      match open_w with
      | Some (s, l) when level <> l ->
        let acc = (s, step, l) :: acc in
        go acc (if level > 0 then Some (step, level) else None) rest
      | Some _ -> go acc open_w rest
      | None -> go acc (if level > 0 then Some (step, level) else None) rest)
    | _ :: rest -> go acc open_w rest
  in
  go [] None t.entries

let governed t = governed_windows t <> []

let recorded_failure t =
  match
    List.find_opt (function Failure_desc _ -> true | _ -> false) t.entries
  with
  | Some (Failure_desc f) -> Some f
  | _ -> t.failure

let entry_count t =
  List.length
    (List.filter
       (function Mark _ | Flight_note _ | Govern _ -> false | _ -> true)
       t.entries)

let payload_bytes t =
  List.fold_left
    (fun acc -> function
      | Input { value; _ } | Read_val { value; _ } | Output { value; _ }
      | Cp_input { value; _ } ->
        acc + Value.size_bytes value
      | Sched _ | Sync _ | Cp_sched _ | Failure_desc _ | Flight_note _
      | Mark _ | Govern _ ->
        acc)
    0 t.entries

let pp_entry ppf = function
  | Sched { tid; sid } -> Format.fprintf ppf "sched t%d s%d" tid sid
  | Input { tid; chan; value } ->
    Format.fprintf ppf "input t%d %s=%a" tid chan Value.pp value
  | Read_val { tid; sid; kind; value } ->
    Format.fprintf ppf "%s t%d s%d %a"
      (match kind with Mem -> "read" | Msg -> "recv-val")
      tid sid Value.pp value
  | Output { chan; value } -> Format.fprintf ppf "output %s=%a" chan Value.pp value
  | Sync { tid; sid; op } ->
    Format.fprintf ppf "sync t%d s%d %s" tid sid
      (match op with
      | Op_send c -> "send:" ^ c
      | Op_recv c -> "recv:" ^ c
      | Op_spawn -> "spawn"
      | Op_lock m -> "lock:" ^ m
      | Op_unlock m -> "unlock:" ^ m)
  | Cp_sched { tid; sid } -> Format.fprintf ppf "cp-sched t%d s%d" tid sid
  | Cp_input { tid; sid; chan; value } ->
    Format.fprintf ppf "cp-input t%d s%d %s=%a" tid sid chan Value.pp value
  | Failure_desc f -> Format.fprintf ppf "failure %a" Failure.pp f
  | Flight_note { buffered } -> Format.fprintf ppf "flight-ring %d events" buffered
  | Mark m -> Format.fprintf ppf "mark %s" m
  | Govern { step; level; reason } ->
    Format.fprintf ppf "govern s%d level=%d (%s)" step level reason

let pp ppf t =
  Format.fprintf ppf "@[<v>log %s: %d entries over %d steps%s@,%a@]" t.recorder
    (entry_count t) t.base_steps
    (match t.faults with
    | Some p -> " under faults " ^ Fault.to_string p
    | None -> "")
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_entry)
    t.entries
