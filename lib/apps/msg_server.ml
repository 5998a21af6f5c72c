open Mvm
open Mvm.Dsl
open Ddet_metrics

let messages_per_producer = 6
let payload_len = 128

(* idle iterations producer 1 performs before starting: arrivals are
   bursty, so the producers only overlap at the burst boundary and the
   lost-update race is rare — hard to reproduce, like the paper's
   failures *)
let stagger = 18

let drop_marker = "DROP"

let net_domain =
  let payload c = Value.str (String.make payload_len c) in
  (* one in eight messages is lost to congestion *)
  [
    payload 'a'; payload 'b'; payload 'c'; payload 'd';
    payload 'e'; payload 'f'; payload 'g';
    Value.str drop_marker;
  ]

let producer_name p = Printf.sprintf "producer%d" p
let done_chan p = Printf.sprintf "done%d" p
let fin_chan p = Printf.sprintf "fin%d" p

(* Delivery attempts a producer waits for its report to be confirmed
   before it retransmits. *)
let report_patience = 12

(* Enqueue without synchronisation: read the cursor, get preempted, write —
   the classic lost-update race that overwrites a peer's slot. *)
let producer p =
  func (producer_name p) []
    [
      (* stagger the second producer's burst *)
      for_ "w" (i 0) (i (p * stagger)) [ skip ];
      assign "sent" (i 0);
      for_ "k" (i 0)
        (i messages_per_producer)
        [
          input "m" "net";
          if_
            (v "m" =: s drop_marker)
            [ (* dropped in the network; the producer still counts it *) skip ]
            [
              assign "idx" (g "cursor");
              yield;
              store "buf" (v "idx") (v "m");
              store_g "cursor" (v "idx" +: i 1);
            ];
          assign "sent" (v "sent" +: i 1);
        ];
      (* report-and-confirm handshake: the done report retransmits until
         the server's fin confirmation arrives, so a dropped report (or
         confirmation) under an injected fault plan cannot wedge the
         run. The server keys on the first report it sees, so duplicates
         are harmless. *)
      send (done_chan p) (v "sent");
      assign "fin" (i 0);
      while_ (v "fin" =: i 0)
        [
          assign "polls" (i 0);
          while_ ((v "fin" =: i 0) &&: (v "polls" <: i report_patience))
            [
              try_recv "okf" "f" (fin_chan p);
              when_ (v "okf") [ assign "fin" (i 1) ];
              assign "polls" (v "polls" +: i 1);
              yield;
            ];
          when_ (v "fin" =: i 0) [ send (done_chan p) (v "sent") ];
        ];
    ]

let program () =
  let cap = 2 * messages_per_producer * 2 in
  program ~name:"msg_server"
    ~regions:
      [ scalar "cursor" (Value.int 0); array "buf" cap (Value.str "") ]
    ~inputs:[ ("net", net_domain) ]
    ~main:"main"
    [
      func "main" []
        [
          spawn (producer_name 0) [];
          spawn (producer_name 1) [];
          (* poll for the producers' reports instead of blocking: a
             lossy channel starves a blocking recv, a poll loop just
             retries. The first report per producer wins; its fin
             confirmation stops that producer's retransmission. *)
          assign "c0" (i 0);
          assign "c1" (i 0);
          assign "got0" (i 0);
          assign "got1" (i 0);
          while_ ((v "got0" =: i 0) ||: (v "got1" =: i 0))
            [
              when_ (v "got0" =: i 0)
                [
                  try_recv "ok0" "d0" (done_chan 0);
                  when_ (v "ok0")
                    [
                      assign "c0" (v "d0");
                      assign "got0" (i 1);
                      send (fin_chan 0) (i 1);
                    ];
                ];
              when_ (v "got1" =: i 0)
                [
                  try_recv "ok1" "d1" (done_chan 1);
                  when_ (v "ok1")
                    [
                      assign "c1" (v "d1");
                      assign "got1" (i 1);
                      send (fin_chan 1) (i 1);
                    ];
                ];
              yield;
            ];
          output "sent" (v "c0" +: v "c1");
          output "delivered" (g "cursor");
        ];
      producer 0;
      producer 1;
    ]

let spec =
  Spec.make "all-sent-delivered" (fun r ->
      match
        ( Interp.outputs_on r "sent",
          Interp.outputs_on r "delivered" )
      with
      | [ Value.Vint sent ], [ Value.Vint delivered ] ->
        if delivered < sent then Error "dropped-messages"
        else if delivered > sent then Error "phantom-messages"
        else Ok ()
      | _ -> Error "malformed-io")

let buffer_race =
  Root_cause.make ~id:"buffer-race"
    ~descr:"unsynchronised cursor update loses a slot when producers interleave"
    (fun r ->
      let writes = Trace.writes_to_scalar r.Interp.trace "cursor" in
      List.exists
        (fun (_, tid1, v1) ->
          List.exists
            (fun (_, tid2, v2) -> tid1 <> tid2 && Value.equal v1 v2)
            writes)
        writes)

let congestion =
  Root_cause.make ~id:"network-congestion"
    ~descr:"the network dropped a message before it reached the server"
    (fun r ->
      List.exists
        (fun (_, _, v) -> Value.equal v (Value.str drop_marker))
        (Trace.inputs_on r.Interp.trace "net"))

let catalog =
  {
    Root_cause.app = "msg_server";
    failure_sig =
      (function
        | Mvm.Failure.Spec_violation "dropped-messages" -> true | _ -> false);
    causes = [ buffer_race; congestion ];
  }

let app () =
  {
    App.name = "msg_server";
    descr =
      "server dropping messages: buffer race vs. network congestion — the \
       paper's Sec. 2 multi-root-cause example";
    labeled = program ();
    spec;
    catalog;
    control_plane = [ "main" ];
    (* deployment: the consuming server on one node, each producer on its
       own — the topology node faults and sharded recording act on *)
    nodes =
      Some
        (Mvm.Node.make
           ~nodes:[ "server"; "p0"; "p1" ]
           ~assign:
             [
               ("main", "server");
               (producer_name 0, "p0");
               (producer_name 1, "p1");
             ]);
  }
