open Mvm

(* Node-aware may-happen-in-parallel. Callgraph.concurrent knows threads
   and multiplicity; this refines it with deployment placement:

   - two sites that can only run on one single-threaded node share a
     thread, so they never overlap (subsumed by Callgraph's same-entry
     rule today, but stated independently so the placement argument does
     not depend on how entries are computed);

   - a channel with exactly one once-executed send site and one
     once-executed blocking receive site (and no competing try_recv)
     carries exactly one FIFO-matched message, so the send
     happens-before the receive in every execution — and with it,
     everything sequenced before the send happens-before everything
     sequenced after the receive. That is the classic message-passing
     happens-before the dynamic Hb detector also honours, which keeps
     the refinement sound with respect to it: a pair Mhp rules out can
     never be reported as a dynamic race.

   Everything else falls through to Callgraph.concurrent, so
   [concurrent t a b] implies [Callgraph.concurrent g a b] by
   construction — the subset law the qcheck suite pins. *)

(* One provable static happens-before through a channel: every
   occurrence of [send_sid] (in [send_fname]) precedes every occurrence
   of [recv_sid] (in [recv_fname]). *)
type fifo = {
  chan : string;
  send_fname : string;
  send_sid : int;
  recv_fname : string;
  recv_sid : int;
}

type t = {
  graph : Callgraph.t;
  flow : Msgflow.t;
  fname_nodes : (string * string list) list;
  single_nodes : string list;  (* nodes hosting exactly one Single entry *)
  fifos : fifo list;
}

let sole_single_entry graph fname =
  match Callgraph.entries_reaching graph fname with
  | [ e ] when e.Callgraph.mult = Callgraph.Single && e.Callgraph.entry = fname ->
    true
  | _ -> false

let analyze ~map graph =
  let labeled = Callgraph.labeled graph in
  let prog = labeled.Label.prog in
  let flow = Msgflow.analyze ~map labeled in
  let fname_nodes = Node.fname_nodes map prog in
  let single_nodes =
    List.filter
      (fun n ->
        let hosted =
          List.filter
            (fun (e : Callgraph.entry) ->
              Node.node_of_fname map e.Callgraph.entry = Some n)
            (Callgraph.entries graph)
        in
        match hosted with
        | [ e ] -> e.Callgraph.mult = Callgraph.Single
        | _ -> false)
      (Node.nodes map)
  in
  (* a channel contributes a happens-before only when its one message is
     unambiguous: a unique send site and a unique blocking recv site,
     both executing at most once (thread-root code, Single entry, not in
     a loop), and no try_recv that could steal the message *)
  let fifos =
    List.filter_map
      (fun c ->
        let recvs = Msgflow.receivers flow c in
        match (Msgflow.senders flow c, recvs) with
        | [ s ], [ r ]
          when r.Msgflow.kind = Msgflow.Recv
               && sole_single_entry graph s.Msgflow.fname
               && sole_single_entry graph r.Msgflow.fname
               && s.Msgflow.fname <> r.Msgflow.fname
               && (not (Msgflow.in_loop flow s.Msgflow.sid))
               && not (Msgflow.in_loop flow r.Msgflow.sid) ->
          Some
            {
              chan = c;
              send_fname = s.Msgflow.fname;
              send_sid = s.Msgflow.sid;
              recv_fname = r.Msgflow.fname;
              recv_sid = r.Msgflow.sid;
            }
        | _ -> None)
      (Msgflow.channels flow)
  in
  { graph; flow; fname_nodes; single_nodes; fifos }

let nodes_of_fname t fname =
  Option.value ~default:[] (List.assoc_opt fname t.fname_nodes)

let same_single_node t (a : Callgraph.access) (b : Callgraph.access) =
  match (nodes_of_fname t a.Callgraph.fname, nodes_of_fname t b.Callgraph.fname) with
  | [ na ], [ nb ] -> na = nb && List.mem na t.single_nodes
  | _ -> false

(* a happens-before b through some channel's one message: a is sequenced
   at/before the send in the sender's root, b at/after the receive in
   the receiver's root *)
let ordered t (a : Callgraph.access) (b : Callgraph.access) =
  List.exists
    (fun f ->
      a.Callgraph.fname = f.send_fname
      && b.Callgraph.fname = f.recv_fname
      && (a.Callgraph.sid = f.send_sid
         || Msgflow.precedes t.flow ~fname:f.send_fname a.Callgraph.sid f.send_sid)
      && (b.Callgraph.sid = f.recv_sid
         || Msgflow.precedes t.flow ~fname:f.recv_fname f.recv_sid b.Callgraph.sid))
    t.fifos

let concurrent t a b =
  Callgraph.concurrent t.graph a b
  && (not (same_single_node t a b))
  && (not (ordered t a b))
  && not (ordered t b a)

let fifos t =
  List.map (fun f -> (f.chan, (f.send_fname, f.send_sid), (f.recv_fname, f.recv_sid))) t.fifos
