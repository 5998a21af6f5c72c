open Mvm

type edge = {
  chan : string;
  send_node : string;
  send_seq : int;
  recv_node : string;
  recv_seq : int;
}

type t = {
  nodes : string list;
  tid_node : (int * string) list;
  edges : edge list;
}

let node_of_tid t tid =
  match List.assoc_opt tid t.tid_node with
  | Some n -> n
  | None -> List.hd t.nodes

let place map fname =
  match Node.node_of_fname map fname with
  | Some n -> n
  | None ->
    invalid_arg
      (Printf.sprintf "Causal.monitor: thread root %S has no node assignment"
         fname)

let monitor ~map ~main_fname () =
  let tid_node : (int, string) Hashtbl.t = Hashtbl.create 8 in
  Hashtbl.replace tid_node 0 (place map main_fname);
  (* per channel: sends seen, receives seen, and the FIFO of unmatched
     sends as (seq, node) — the k-th receive pairs with the k-th send *)
  let sends : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let recvs : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let unmatched : (string, (int * string) Queue.t) Hashtbl.t = Hashtbl.create 8 in
  let edges = ref [] in
  let bump tbl chan =
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt tbl chan) in
    Hashtbl.replace tbl chan n;
    n
  in
  let queue_of chan =
    match Hashtbl.find_opt unmatched chan with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace unmatched chan q;
      q
  in
  let node_of tid =
    match Hashtbl.find_opt tid_node tid with
    | Some n -> n
    | None -> place map main_fname
  in
  let on_event (e : Event.t) =
    match e.Event.kind with
    | Event.Spawned { child; fname } ->
      Hashtbl.replace tid_node child (place map fname)
    | Event.Msg_send io ->
      let k = bump sends io.Event.chan in
      Queue.push (k, node_of e.Event.tid) (queue_of io.Event.chan)
    | Event.Msg_recv io ->
      let j = bump recvs io.Event.chan in
      let q = queue_of io.Event.chan in
      if not (Queue.is_empty q) then begin
        let k, send_node = Queue.pop q in
        let recv_node = node_of e.Event.tid in
        if not (String.equal send_node recv_node) then
          edges :=
            {
              chan = io.Event.chan;
              send_node;
              send_seq = k;
              recv_node;
              recv_seq = j;
            }
            :: !edges
      end
      (* unmatched receive: a forced duplicate delivery on an empty
         queue — no edge; we never fabricate an ordering *)
    | _ -> ()
  in
  let finish () =
    {
      nodes = Node.nodes map;
      tid_node =
        Hashtbl.fold (fun tid n acc -> (tid, n) :: acc) tid_node []
        |> List.sort compare;
      edges = List.rev !edges;
    }
  in
  (on_event, finish)
