type t = Event.t Vec.t

let create = Vec.create
let append = Vec.push
let length = Vec.length
let events = Vec.to_list
let iter = Vec.iter
let fold = Vec.fold
let filter = Vec.filter
let exists = Vec.exists
let count = Vec.count

let steps t =
  count (fun (e : Event.t) -> match e.kind with Event.Step -> true | _ -> false) t

let outputs t =
  let tbl : (string, Value.t list) Hashtbl.t = Hashtbl.create 8 in
  iter
    (fun (e : Event.t) ->
      match e.kind with
      | Event.Out io ->
        let prev = Option.value ~default:[] (Hashtbl.find_opt tbl io.chan) in
        Hashtbl.replace tbl io.chan (io.value.Value.v :: prev)
      | _ -> ())
    t;
  Hashtbl.fold (fun chan vs acc -> (chan, List.rev vs) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let outputs_on t chan =
  fold
    (fun acc (e : Event.t) ->
      match e.kind with
      | Event.Out io when String.equal io.chan chan -> io.value.Value.v :: acc
      | _ -> acc)
    [] t
  |> List.rev

let inputs_on t chan =
  fold
    (fun acc (e : Event.t) ->
      match e.kind with
      | Event.In io when String.equal io.chan chan ->
        (e.step, e.tid, io.value.Value.v) :: acc
      | _ -> acc)
    [] t
  |> List.rev

let reads_by t tid =
  fold
    (fun acc (e : Event.t) ->
      match e.kind with
      | Event.Read a when e.tid = tid -> a.value.Value.v :: acc
      | _ -> acc)
    [] t
  |> List.rev

let writes_to_scalar t region =
  fold
    (fun acc (e : Event.t) ->
      match e.kind with
      | Event.Write a when a.index = None && String.equal a.region region ->
        (e.step, e.tid, a.value.Value.v) :: acc
      | _ -> acc)
    [] t
  |> List.rev

let scalar_at t region ~init ~step =
  fold
    (fun acc (e : Event.t) ->
      match e.kind with
      | Event.Write a
        when a.index = None && String.equal a.region region && e.step < step ->
        a.value.Value.v
      | _ -> acc)
    init t

let array_cell_at t region ~index ~init ~step =
  fold
    (fun acc (e : Event.t) ->
      match e.kind with
      | Event.Write a
        when a.index = Some index && String.equal a.region region && e.step < step
        ->
        a.value.Value.v
      | _ -> acc)
    init t

let sched_points t =
  fold
    (fun acc (e : Event.t) ->
      match e.kind with Event.Step -> (e.tid, e.sid) :: acc | _ -> acc)
    [] t
  |> List.rev

let pp ppf t =
  iter (fun e -> Format.fprintf ppf "%a@." Event.pp e) t
