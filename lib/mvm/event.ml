type access = { region : string; index : int option; value : Value.tagged }

type io = { chan : string; value : Value.tagged }

type kind =
  | Step
  | Read of access
  | Write of access
  | In of io
  | Out of io
  | Msg_send of io
  | Msg_recv of io
  | Lock_acq of string
  | Lock_rel of string
  | Spawned of { child : int; fname : string }
  | Crashed of string

type t = { step : int; tid : int; sid : int; fname : string; kind : kind }

let is_shared_access t =
  match t.kind with
  | Read _ | Write _ -> true
  | Step | In _ | Out _ | Msg_send _ | Msg_recv _ | Lock_acq _ | Lock_rel _
  | Spawned _ | Crashed _ ->
    false

let tainted_bytes (v : Value.tagged) =
  if Taint.is_empty v.taint then 0 else Value.size_bytes v.v

let data_bytes t =
  match t.kind with
  | Read a | Write a -> tainted_bytes a.value
  | In io -> Value.size_bytes io.value.v
  | Out io | Msg_send io | Msg_recv io -> tainted_bytes io.value
  | Step | Lock_acq _ | Lock_rel _ | Spawned _ | Crashed _ -> 0

let pp ppf t =
  let loc ppf () =
    Format.fprintf ppf "@%d t%d s%d(%s)" t.step t.tid t.sid t.fname
  in
  match t.kind with
  | Step -> Format.fprintf ppf "step %a" loc ()
  | Read a ->
    Format.fprintf ppf "read %a %s%s = %a" loc () a.region
      (match a.index with Some i -> Printf.sprintf "[%d]" i | None -> "")
      Value.pp_tagged a.value
  | Write a ->
    Format.fprintf ppf "write %a %s%s := %a" loc () a.region
      (match a.index with Some i -> Printf.sprintf "[%d]" i | None -> "")
      Value.pp_tagged a.value
  | In io -> Format.fprintf ppf "in %a %s <- %a" loc () io.chan Value.pp_tagged io.value
  | Out io -> Format.fprintf ppf "out %a %s -> %a" loc () io.chan Value.pp_tagged io.value
  | Msg_send io ->
    Format.fprintf ppf "send %a %s %a" loc () io.chan Value.pp_tagged io.value
  | Msg_recv io ->
    Format.fprintf ppf "recv %a %s %a" loc () io.chan Value.pp_tagged io.value
  | Lock_acq m -> Format.fprintf ppf "lock %a %s" loc () m
  | Lock_rel m -> Format.fprintf ppf "unlock %a %s" loc () m
  | Spawned s -> Format.fprintf ppf "spawn %a t%d=%s" loc () s.child s.fname
  | Crashed msg -> Format.fprintf ppf "crash %a %s" loc () msg
