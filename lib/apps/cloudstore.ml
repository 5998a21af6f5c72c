open Mvm
open Mvm.Dsl
open Ddet_metrics

let n_writers = 2
let blocks_per_writer = 4
let payload_len = 256

let rc_race = "early-ack-race"
let rc_drop = "replication-drop"
let rc_disk = "disk-fault"

let ack_chan w = Printf.sprintf "ack_%d" w
let resp_chan w = Printf.sprintf "resp_%d" w
let writer_name w = Printf.sprintf "writer%d" w

let fault_domain = [ 0; 0; 0; 0; 0; 0; 0; 1 ] |> List.map Value.int

let payload_domain =
  [ 'p'; 'q'; 'r' ] |> List.map (fun c -> Value.str (String.make payload_len c))

(* Route a response or acknowledgement to the writer owning block [idv]:
   writer w owns ids [w*B, (w+1)*B). *)
let route_by_id idv chan_of =
  let rec chain w =
    if w = n_writers - 1 then [ send (chan_of w) (v "r") ]
    else
      [
        if_
          (v idv <: i ((w + 1) * blocks_per_writer))
          [ send (chan_of w) (v "r") ]
          (chain (w + 1));
      ]
  in
  match chain 0 with [ s ] -> s | ss -> if_ (b true) ss []

(* Control-plane helpers: fault handling and routing decisions live in
   their own low-data-rate functions, as in miniht. *)
let startup_p_func =
  func "startup_p" [] [ input "f" "fault_net"; return (v "f") ]

let startup_s_func =
  func "startup_s" [] [ input "f" "fault_disk"; return (v "f") ]

let pick_verify_func =
  func "pick_verify" [] [ input "b" "verify_block"; return (v "b") ]

let pick_replica_func =
  func "pick_replica" [] [ input "c" "replica_choice"; return (v "c") ]

(* The primary chunkserver: stores writes, ACKNOWLEDGES BEFORE FORWARDING
   the replication (the early-ack defect: the replication pipeline is an
   asynchronous store-and-forward queue flushed one block per service
   iteration, strictly after pending reads), serves reads from disk_0 and
   drops exactly one replication when the forwarding-link fault fires. *)
let primary_func =
  let poll =
    [
      try_recv "okw" "bid" "write_0";
      when_ (v "okw")
        [
          recv "m" "write_0";
          store "disk_0" (v "bid") (i 1);
          store_g "bytes_p" (g "bytes_p" +: str_len (v "m"));
          (* the ack names the block it covers, so writers can discard
             stale or duplicated acks during retransmission *)
          assign "r" (v "bid");
          route_by_id "bid" ack_chan;
          if_
            ((v "fnet" =: i 1) &&: (v "dropped" =: i 0))
            [ assign "dropped" (i 1) ]
            [ send "replq" (v "bid"); send "replq" (v "m") ];
        ];
      try_recv "okr" "rb" "read_0";
      when_ (v "okr")
        [ assign "r" (idx "disk_0" (v "rb")); route_by_id "rb" resp_chan ];
      (* flush one pending replication — an acknowledged block reaches
         the secondary strictly later than its ack *)
      try_recv "okf" "fb" "replq";
      when_ (v "okf")
        [ recv "fm" "replq"; send "repl" (v "fb"); send "repl" (v "fm") ];
    ]
  in
  func "primary" []
    ([
       call ~dest:"fnet" "startup_p" [];
       assign "dropped" (i 0);
       assign "stopped" (i 0);
       while_ (v "stopped" =: i 0)
         (poll
         @ [
             try_recv "okc" "cm" "ctl_p";
             when_ (v "okc") [ assign "stopped" (i 1) ];
             yield;
           ]);
     ]
    @ [
        assign "more" (b true);
        while_ (v "more")
          (poll @ [ assign "more" (v "okw" ||: v "okr" ||: v "okf") ]);
        send "ack_p" (i 1);
      ])

(* The secondary chunkserver: applies replications (unless its disk
   faulted) and serves reads from disk_1. *)
let secondary_func =
  let poll =
    [
      try_recv "okr2" "rid" "repl";
      when_ (v "okr2")
        [
          recv "m" "repl";
          when_ (v "fdisk" =: i 0)
            [
              store "disk_1" (v "rid") (i 1);
              store_g "bytes_s" (g "bytes_s" +: str_len (v "m"));
            ];
        ];
      try_recv "okq" "rb" "read_1";
      when_ (v "okq")
        [ assign "r" (idx "disk_1" (v "rb")); route_by_id "rb" resp_chan ];
    ]
  in
  func "secondary" []
    ([
       call ~dest:"fdisk" "startup_s" [];
       assign "stopped" (i 0);
       while_ (v "stopped" =: i 0)
         (poll
         @ [
             try_recv "okc" "cm" "ctl_s";
             when_ (v "okc") [ assign "stopped" (i 1) ];
             yield;
           ]);
     ]
    @ [
        assign "more" (b true);
        while_ (v "more") (poll @ [ assign "more" (v "okr2" ||: v "okq") ]);
        send "ack_s" (i 1);
      ])

(* Delivery attempts a writer makes before it retransmits an upload. *)
let ack_patience = 12

let writer_func w =
  let upload =
    (* one upload per connection: the id/payload pair is serialised *)
    [
      lock "wl";
      send "write_0" (v "bid");
      send "write_0" (v "m");
      unlock "wl";
    ]
  in
  func (writer_name w) []
    [
      for_ "k" (i 0)
        (i blocks_per_writer)
        ([
           input "m" "blk_data";
           assign "bid" (i (w * blocks_per_writer) +: v "k");
         ]
        @ upload
        @ [
            (* at-least-once upload over a lossy link: poll for this
               block's ack with a patience window, retransmit on timeout.
               Acks carry the block id, so a stale or duplicated ack for
               an earlier block is consumed and discarded rather than
               satisfying this wait; the primary's store is idempotent,
               so retransmitted uploads are safe. *)
            assign "acked" (i 0);
            while_ (v "acked" =: i 0)
              [
                assign "polls" (i 0);
                while_ ((v "acked" =: i 0) &&: (v "polls" <: i ack_patience))
                  [
                    try_recv "oka" "a" (ack_chan w);
                    when_ (v "oka" &&: (v "a" =: v "bid"))
                      [ assign "acked" (i 1) ];
                    assign "polls" (v "polls" +: i 1);
                    yield;
                  ];
                when_ (v "acked" =: i 0) upload;
              ];
          ]);
      (* verify one of our blocks through a load-balanced replica *)
      call ~dest:"vb" "pick_verify" [];
      assign "b" (i (w * blocks_per_writer) +: v "vb");
      call ~dest:"rep" "pick_replica" [];
      if_ (v "rep" =: i 0)
        [ send "read_0" (v "b") ]
        [ send "read_1" (v "b") ];
      (* the response can be starved by drop faults too: keep polling *)
      assign "got" (i 0);
      while_ (v "got" =: i 0)
        [
          try_recv "okv" "res" (resp_chan w);
          if_ (v "okv") [ assign "got" (i 1) ] [ yield ];
        ];
      if_ (v "res" =: i 0)
        [ send "wdone" (i 1) ]
        [ send "wdone" (i 0) ];
    ]

let main_func =
  func "main" []
    ([ spawn "primary" []; spawn "secondary" [] ]
    @ List.init n_writers (fun w -> spawn (writer_name w) [])
    @ [
        assign "stales" (i 0);
        for_ "c" (i 0) (i n_writers)
          [ recv "d" "wdone"; assign "stales" (v "stales" +: v "d") ];
        send "ctl_p" (i 2);
        recv "ap" "ack_p";
        send "ctl_s" (i 2);
        recv "as_" "ack_s";
        output "reads" (i n_writers);
        output "stales" (v "stales");
      ])

let program () =
  let total = n_writers * blocks_per_writer in
  program ~name:"cloudstore"
    ~regions:
      [
        array "disk_0" total (Value.int 0);
        array "disk_1" total (Value.int 0);
        scalar "bytes_p" (Value.int 0);
        scalar "bytes_s" (Value.int 0);
      ]
    ~inputs:
      [
        ("blk_data", payload_domain);
        ("verify_block", List.init blocks_per_writer Value.int);
        ("replica_choice", [ Value.int 0; Value.int 1 ]);
        ("fault_net", fault_domain);
        ("fault_disk", fault_domain);
      ]
    ~main:"main"
    ([
       main_func;
       primary_func;
       secondary_func;
       startup_p_func;
       startup_s_func;
       pick_verify_func;
       pick_replica_func;
     ]
    @ List.init n_writers writer_func)

let spec =
  Spec.make "acked-blocks-readable" (fun r ->
      match Interp.outputs_on r "stales" with
      | [ Value.Vint 0 ] -> Ok ()
      | [ Value.Vint n ] when n > 0 -> Error "stale-read"
      | _ -> Error "malformed-io")

(* The transient signature of the race: a read observed 0 in a cell that
   holds 1 by the end of the run — the replication arrived after the
   read. Dropped or disk-faulted replications leave the cell at 0. One
   pass over the trace collects both halves for every block. *)
let race_cause =
  Root_cause.make ~id:rc_race
    ~descr:
      "a load-balanced read reached the secondary before the replication of \
       an already-acknowledged block"
    (fun r ->
      let total = n_writers * blocks_per_writer in
      let read_zero = Array.make total false in
      let final = Array.make total (Value.int 0) in
      Trace.iter
        (fun (e : Event.t) ->
          match e.Event.kind with
          | Event.Read { region = "disk_1"; index = Some i; value }
            when i >= 0 && i < total ->
            if Value.equal value.Value.v (Value.int 0) then read_zero.(i) <- true
          | Event.Write { region = "disk_1"; index = Some i; value }
            when i >= 0 && i < total ->
            final.(i) <- value.Value.v
          | _ -> ())
        r.Interp.trace;
      let stale_then_present b =
        read_zero.(b) && Value.equal final.(b) (Value.int 1)
      in
      List.exists stale_then_present (List.init total (fun b -> b)))

(* did an input on [chan] deliver the fault value 1? *)
let fault_fired chan (r : Interp.result) =
  Trace.exists
    (fun (e : Event.t) ->
      match e.kind with
      | Event.In io ->
        String.equal io.chan chan && Value.equal io.value.Value.v (Value.int 1)
      | _ -> false)
    r.Interp.trace

let drop_cause =
  Root_cause.make ~id:rc_drop
    ~descr:"the forwarding link dropped a replication; the block never arrives"
    (fault_fired "fault_net")

let disk_cause =
  Root_cause.make ~id:rc_disk
    ~descr:"the secondary's disk rejected writes"
    (fault_fired "fault_disk")

let catalog =
  {
    Root_cause.app = "cloudstore";
    failure_sig =
      (function Mvm.Failure.Spec_violation "stale-read" -> true | _ -> false);
    causes = [ race_cause; drop_cause; disk_cause ];
  }

let app () =
  {
    App.name = "cloudstore";
    descr =
      "replicated block store: early acks race load-balanced reads against \
       the replication pipeline";
    labeled = program ();
    spec;
    catalog;
    control_plane =
      [ "main"; "startup_p"; "startup_s"; "pick_verify"; "pick_replica" ];
    (* deployment: coordinator, the two replicas, one node per writer
       client; helper functions live with whichever root calls them *)
    nodes =
      Some
        (Mvm.Node.make
           ~nodes:
             ([ "coord"; "primary"; "secondary" ]
             @ List.init n_writers (Printf.sprintf "client%d"))
           ~assign:
             ([
                ("main", "coord");
                ("primary", "primary");
                ("secondary", "secondary");
              ]
             @ List.init n_writers (fun w ->
                   (writer_name w, Printf.sprintf "client%d" w))));
  }
