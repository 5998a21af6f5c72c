open Mvm
open Mvm.Dsl
open Ddet_metrics

let n_clients = 3
let rows_per_client = 8

(* rows on (server 0, range 0) that trigger the migration *)
let migrate_threshold = 10
let payload_len = 256

let rc_race = "migration-commit-race"
let rc_crash = "server-crash"
let rc_oom = "client-oom"

let st s r = Printf.sprintf "st_%d_%d" s r
let commit s r = Printf.sprintf "commit_%d_%d" s r
let ctl s = Printf.sprintf "ctl_%d" s
let ack s = Printf.sprintf "ack_%d" s
let bytes s = Printf.sprintf "bytes_%d" s
let fault_crash s = Printf.sprintf "fault_crash_%d" s

(* control messages on ctl_s *)
let msg_migrate = 1
let msg_stop = 2

let fault_domain = [ 0; 0; 0; 0; 0; 0; 0; 1 ] |> List.map Value.int

let row_data_domain =
  [ 'x'; 'y'; 'z' ] |> List.map (fun c -> Value.str (String.make payload_len c))

(* Row-key (range) selection: the range a row belongs to is metadata that
   steers control-plane branches, so it must enter through control-plane
   code — RCSE records "the data on control-plane channels", and this is
   such a channel. *)
let pick_range_func =
  func "pick_range" [] [ input "r" "row_range"; return (v "r") ]

(* Routing: read the ownership map for the row's range. Kept in its own
   function because it is the control-plane half of the client: it moves
   metadata (small untainted ints), not payload. *)
let route_func =
  func "route" [ "r" ]
    [
      if_ (v "r" =: i 0)
        [ return (g "owner_0") ]
        [ return (g "owner_1") ];
    ]

let client_func =
  func "client" []
    [
      assign "sent" (i 0);
      for_ "k" (i 0) (i rows_per_client)
        [
          call ~dest:"r" "pick_range" [];
          input "m" "row_data";
          call ~dest:"dest" "route" [ v "r" ];
          if_ (v "r" =: i 0)
            [
              if_ (v "dest" =: i 0)
                [ send (commit 0 0) (v "m") ]
                [ send (commit 1 0) (v "m") ];
            ]
            [
              if_ (v "dest" =: i 0)
                [ send (commit 0 1) (v "m") ]
                [ send (commit 1 1) (v "m") ];
            ];
          assign "sent" (v "sent" +: i 1);
        ];
      send "client_done" (v "sent");
    ]

(* The master is event-driven, as in Hypertable: server 0 reports its load
   for range 0 after each commit; crossing the threshold triggers the
   migration. A -1 sentinel from main ends the master's life. *)
let master_func =
  func "master" []
    [
      assign "migrated" (i 0);
      assign "fin" (i 0);
      while_ (v "fin" =: i 0)
        [
          recv "c" "load_report";
          if_ (v "c" =: i (-1))
            [ assign "fin" (i 1) ]
            [
              when_
                ((v "migrated" =: i 0) &&: (v "c" >=: i migrate_threshold))
                [
                  (* migrate range 0: ask server 0 to transfer, then flip
                     the map — a client that routed in between commits to
                     the old owner *)
                  send (ctl 0) (i msg_migrate);
                  store_g "owner_0" (i 1);
                  assign "migrated" (i 1);
                ];
            ];
        ];
      send "master_done" (i 1);
    ]

(* Control-plane message handling for server [s]: transfer-out of range 0
   (server 0 only) and the stop command. Returns 1 when the server should
   shut down. *)
let handle_ctl_func s =
  let transfer =
    if s = 0 then
      [
        assign "moved" (g (st 0 0));
        store_g (st 0 0) (i 0);
        send "xferin_1" (v "moved");
      ]
    else [ skip ]
  in
  func (Printf.sprintf "handle_ctl_%d" s) [ "msg" ]
    [
      if_ (v "msg" =: i msg_migrate)
        (transfer @ [ return (i 0) ])
        [ return (i 1) ];
    ]

(* Shutdown for server [s]: consult the crash-fault input (error handling
   is control-plane code), then acknowledge. A crashed server loses its
   stored rows. *)
let shutdown_func s =
  func (Printf.sprintf "shutdown_%d" s) []
    [
      input "f" (fault_crash s);
      when_ (v "f" =: i 1)
        [ store_g (st s 0) (i 0); store_g (st s 1) (i 0) ];
      send (ack s) (i 1);
    ]

(* The data-plane server loop: drain commit payloads (and, for server 1,
   transferred rows), dispatching control messages to the control-plane
   handler. *)
let server_func s =
  let process r =
    [
      assign "len" (str_len (v "m"));
      store_g (bytes s) (g (bytes s) +: v "len");
      store_g (st s r) (g (st s r) +: i 1);
    ]
    @
    (* server 0 reports its range-0 load to the master *)
    if s = 0 && r = 0 then [ send "load_report" (g (st 0 0)) ] else []
  in
  let poll_commits =
    [
      try_recv "ok0" "m" (commit s 0);
      when_ (v "ok0") (process 0);
      try_recv "ok1" "m" (commit s 1);
      when_ (v "ok1") (process 1);
    ]
    @
    if s = 1 then
      [
        try_recv "okx" "x" "xferin_1";
        when_ (v "okx") [ store_g (st 1 0) (g (st 1 0) +: v "x") ];
      ]
    else []
  in
  let more_cond =
    if s = 1 then v "ok0" ||: v "ok1" ||: v "okx" else v "ok0" ||: v "ok1"
  in
  func (Printf.sprintf "server%d" s) []
    [
      assign "stopped" (i 0);
      while_ (v "stopped" =: i 0)
        (poll_commits
        @ [
            try_recv "okc" "cm" (ctl s);
            when_ (v "okc")
              [ call ~dest:"stopped" (Printf.sprintf "handle_ctl_%d" s) [ v "cm" ] ];
            yield;
          ]);
      (* stop received: drain everything still queued, then shut down *)
      assign "more" (b true);
      while_ (v "more") (poll_commits @ [ assign "more" more_cond ]);
      call (Printf.sprintf "shutdown_%d" s) [];
    ]

(* Dumping asks the *current owner* of each range for its rows — rows
   stranded on a non-owner are silently ignored, as in the bug report. *)
let dump_funcs =
  [
    func "dump_range0" []
      [
        if_ (g "owner_0" =: i 0)
          [ return (g (st 0 0)) ]
          [ return (g (st 1 0)) ];
      ];
    func "dump_range1" []
      [
        if_ (g "owner_1" =: i 0)
          [ return (g (st 0 1)) ]
          [ return (g (st 1 1)) ];
      ];
  ]

let main_func =
  func "main" []
    ([
       spawn "server0" [];
       spawn "server1" [];
       spawn "master" [];
     ]
    @ List.init n_clients (fun _ -> spawn "client" [])
    @ [
        assign "loaded" (i 0);
        for_ "c" (i 0) (i n_clients)
          [ recv "d" "client_done"; assign "loaded" (v "loaded" +: v "d") ];
        send "load_report" (i (-1));
        recv "md" "master_done";
        (* sequential shutdown: server 0 first so its transfer reaches
           server 1 before server 1 drains *)
        send (ctl 0) (i msg_stop);
        recv "a0" (ack 0);
        send (ctl 1) (i msg_stop);
        recv "a1" (ack 1);
        call ~dest:"d0" "dump_range0" [];
        call ~dest:"d1" "dump_range1" [];
        input "oomf" "fault_oom";
        if_ (v "oomf" =: i 1)
          [ (* dump client out of memory: range 1 never dumped *)
            assign "dumped" (v "d0") ]
          [ assign "dumped" (v "d0" +: v "d1") ];
        output "loaded" (v "loaded");
        output "dumped" (v "dumped");
      ])

let program () =
  program ~name:"miniht"
    ~regions:
      [
        scalar "owner_0" (Value.int 0);
        scalar "owner_1" (Value.int 1);
        scalar (st 0 0) (Value.int 0);
        scalar (st 0 1) (Value.int 0);
        scalar (st 1 0) (Value.int 0);
        scalar (st 1 1) (Value.int 0);
        scalar (bytes 0) (Value.int 0);
        scalar (bytes 1) (Value.int 0);
      ]
    ~inputs:
      [
        ("row_range", [ Value.int 0; Value.int 1 ]);
        ("row_data", row_data_domain);
        (fault_crash 0, fault_domain);
        (fault_crash 1, fault_domain);
        ("fault_oom", fault_domain);
      ]
    ~main:"main"
    ([
       main_func;
       master_func;
       client_func;
       pick_range_func;
       route_func;
       server_func 0;
       server_func 1;
       handle_ctl_func 0;
       handle_ctl_func 1;
       shutdown_func 0;
       shutdown_func 1;
     ]
    @ dump_funcs)

let spec =
  Spec.make "dump-returns-all-rows" (fun r ->
      match
        ( Interp.outputs_on r "loaded",
          Interp.outputs_on r "dumped" )
      with
      | [ Value.Vint loaded ], [ Value.Vint dumped ] ->
        if dumped < loaded then Error "missing-rows"
        else if dumped > loaded then Error "phantom-rows"
        else Ok ()
      | _ -> Error "malformed-io")

(* The race predicate's regions, st_s_r for each (server, range) and
   then the ownership map, with their initial values: their final values
   are read in one pass over the trace. *)
let race_regions = [| st 0 0; st 0 1; st 1 0; st 1 1; "owner_0"; "owner_1" |]
let race_inits = [| 0; 0; 0; 0; 0; 1 |]

let region_slot region =
  let rec go k =
    if k = Array.length race_regions then -1
    else if String.equal race_regions.(k) region then k
    else go (k + 1)
  in
  go 0

let race_cause =
  Root_cause.make ~id:rc_race
    ~descr:
      "rows committed to a range server concurrently with the migration of \
       their range end up on a non-owner and are ignored by dumps"
    (fun r ->
      let final = Array.map Value.int race_inits in
      Trace.iter
        (fun (e : Event.t) ->
          match e.kind with
          | Event.Write { region; index = None; value } ->
            let k = region_slot region in
            if k >= 0 then final.(k) <- value.Value.v
          | _ -> ())
        r.Interp.trace;
      (* a non-integer final value reads as the region's initial one *)
      let int k = match final.(k) with Value.Vint n -> n | _ -> race_inits.(k) in
      let stranded s rng = int ((2 * s) + rng) > 0 && int (4 + rng) <> s in
      stranded 0 0 || stranded 0 1 || stranded 1 0 || stranded 1 1)

(* did an input on one of [chans] deliver the fault value 1? *)
let fault_fired chans (r : Interp.result) =
  Trace.exists
    (fun (e : Event.t) ->
      match e.kind with
      | Event.In io ->
        List.exists (String.equal io.chan) chans
        && Value.equal io.value.Value.v (Value.int 1)
      | _ -> false)
    r.Interp.trace

let crash_cause =
  Root_cause.make ~id:rc_crash
    ~descr:"a range server crashed after upload, losing its rows (expected)"
    (fault_fired [ fault_crash 0; fault_crash 1 ])

let oom_cause =
  Root_cause.make ~id:rc_oom
    ~descr:"the dump client ran out of memory and truncated the dump"
    (fault_fired [ "fault_oom" ])

let catalog =
  {
    Root_cause.app = "miniht";
    failure_sig =
      (function
        | Mvm.Failure.Spec_violation "missing-rows" -> true | _ -> false);
    causes = [ race_cause; crash_cause; oom_cause ];
  }

let app () =
  {
    App.name = "miniht";
    descr =
      "mini-Hypertable: concurrent loads race a range migration and rows \
       vanish from dumps (issue 63, the paper's Sec. 4 case study)";
    labeled = program ();
    spec;
    catalog;
    control_plane =
      [
        "main"; "master"; "pick_range"; "route"; "handle_ctl_0";
        "handle_ctl_1"; "shutdown_0"; "shutdown_1"; "dump_range0";
        "dump_range1";
      ];
    (* clients share one root function, so a static thread-to-node
       assignment is not expressible — miniht stays single-process *)
    nodes = None;
  }
