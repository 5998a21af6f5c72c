(* Unit tests for the mvm library: PRNG, vectors, taint, values, DSL,
   labelling, interpreter semantics, scheduling, failures and traces. *)

open Mvm
open Mvm.Dsl

let value_testable = Alcotest.testable Value.pp Value.equal

let run ?max_steps ?(world = World.round_robin ()) labeled =
  Interp.run ?max_steps labeled world

let outputs_on (r : Interp.result) chan =
  match List.assoc_opt chan r.outputs with Some vs -> vs | None -> []

let check_status expected (r : Interp.result) =
  Alcotest.(check string)
    "status" expected
    (match r.status with
    | Interp.Done -> "done"
    | Interp.Crashed _ -> "crashed"
    | Interp.Deadlock -> "deadlock"
    | Interp.Step_limit -> "step-limit"
    | Interp.Aborted _ -> "aborted")

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs = List.init 100 (fun _ -> Prng.int a 1000) in
  let ys = List.init 100 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 50 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 50 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds diverge" false (xs = ys)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of range"
  done

let test_prng_pick () =
  let rng = Prng.create 3 in
  for _ = 1 to 100 do
    let v = Prng.pick rng [ 1; 2; 3 ] in
    if not (List.mem v [ 1; 2; 3 ]) then Alcotest.fail "pick outside list"
  done;
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick rng []))

let test_prng_copy () =
  let a = Prng.create 9 in
  ignore (Prng.int a 10);
  let b = Prng.copy a in
  Alcotest.(check int) "copy continues identically" (Prng.int a 1000)
    (Prng.int b 1000)

let test_prng_float () =
  let rng = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

(* the stateless coin both fault planners draw from: the splitmix64
   finaliser stepped once per coordinate from (hash xor coordinate +
   golden gamma), written out here so that a change to the fold, the
   constants or the 53-bit float shows up as changed fault decisions *)
let test_prng_coin () =
  let mix64 z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let mix_int h x =
    mix64 (Int64.add (Int64.logxor h (Int64.of_int x)) 0x9E3779B97F4A7C15L)
  in
  let reference seed coords =
    let h = List.fold_left mix_int (Int64.of_int seed) coords in
    Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.
  in
  List.iter
    (fun (seed, coords) ->
      let c = Prng.coin seed coords in
      Alcotest.(check (float 0.))
        (Printf.sprintf "coin %d [%s]" seed
           (String.concat "; " (List.map string_of_int coords)))
        (reference seed coords) c;
      if c < 0.0 || c >= 1.0 then Alcotest.fail "coin out of [0,1)")
    [
      (11, [ 1; 0; 0; 3; 12345 ]); (11, [ 2; 7; 1; -4; 0 ]); (7, [ 11; 0 ]);
      (7, [ 11; 59 ]); (0, []); (-3, [ max_int; min_int ]);
    ];
  Alcotest.(check bool) "coordinate order matters" false
    (Prng.coin 5 [ 1; 2 ] = Prng.coin 5 [ 2; 1 ])

(* Coins at the coordinates fault injection draws at ([salt; step; tid;
   sid; channel salt]), pinned by value: a change to the coin or to the
   way the injector feeds it moves every faulted run. The five-coordinate
   form must give the same numbers. *)
let test_fault_coins_pinned () =
  List.iter
    (fun (seed, coords, expected) ->
      let what =
        Printf.sprintf "coin %d [%s]" seed (String.concat "; " (List.map string_of_int coords))
      in
      Alcotest.(check (float 0.)) what expected (Prng.coin seed coords);
      match coords with
      | [ a; b; c; d; e ] ->
        Alcotest.(check (float 0.)) (what ^ ", five-coordinate form") expected
          (float_of_int (Prng.coin_bits5 seed a b c d e) /. 9007199254740992.)
      | _ -> Alcotest.fail "five coordinates")
    [
      (11, [ 1; 37; 2; 14; 235782421 ], 0x1.ae972f22c275cp-1);
      (11, [ 2; 512; 0; 3; 7190899 ], 0x1.0573f2545b694p-3);
      (5, [ 3; 90; 1; 0; 327727248780311 ], 0x1.9af41eb280219p-1);
      (5, [ 4; 90; 1; 0; 327727248780311 ], 0x1.8b5458a2d0746p-1);
      (0, [ 1; 0; 0; 0; 0 ], 0x1.a461e8d7c5f64p-3);
      (-7, [ 2; max_int; -1; 199; min_int ], 0x1.1c0374a0f9cf8p-4);
    ]

(* The stream every world and search draws from, pinned by value: a
   rewrite of the generator's state or of [int] must draw these numbers,
   or every seeded schedule in the repository moves. *)
let test_prng_stream_pinned () =
  List.iter
    (fun (seed, expected) ->
      let rng = Prng.create seed in
      let got = List.init 5 (fun _ -> Prng.int rng 1_000_000_007) in
      Alcotest.(check (list int)) (Printf.sprintf "seed %d" seed) expected got)
    [
      (0, [ 649787358; 618087613; 14556641; 853315927; 173460857 ]);
      (1, [ 510577084; 691428183; 225004110; 110728840; 940077132 ]);
      (42, [ 249768340; 869527453; 121944468; 953467420; 307808447 ]);
      (-1, [ 884022725; 812190104; 495831006; 318753401; 88616733 ]);
      (max_int, [ 709070576; 457746305; 727620844; 805444455; 799274113 ]);
    ]

(* [Prng.int] keeps the low bits for a power-of-two bound and divides
   for any other: the value must be the division's for every bound. The
   reference is the draw [Prng.int] made with a division for every bound,
   splitmix64 written out, stepped in lock step with the generator. *)
let test_prng_int_is_mod () =
  for seed = 1 to 1_000 do
    let rng = Prng.create seed and state = ref (Int64.of_int seed) in
    for bound = 1 to 64 do
      let open Int64 in
      let z = add !state 0x9E3779B97F4A7C15L in
      state := z;
      let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
      let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
      let z = logxor z (shift_right_logical z 31) in
      let expected = Stdlib.( mod ) (to_int (shift_right_logical z 2)) bound in
      let got = Prng.int rng bound in
      if got <> expected then
        Alcotest.failf "seed %d, bound %d: Prng.int %d, the division %d" seed
          bound got expected
    done
  done

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_push_get () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 0" 0 (Vec.get v 0);
  Alcotest.(check int) "get 99" 99 (Vec.get v 99);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec.get") (fun () ->
      ignore (Vec.get v 100))

let test_vec_list_roundtrip () =
  let xs = [ 3; 1; 4; 1; 5 ] in
  Alcotest.(check (list int)) "roundtrip" xs (Vec.to_list (Vec.of_list xs))

let test_vec_fold_filter () =
  let v = Vec.of_list [ 1; 2; 3; 4 ] in
  Alcotest.(check int) "fold sum" 10 (Vec.fold ( + ) 0 v);
  Alcotest.(check (list int)) "filter even" [ 2; 4 ] (Vec.filter (fun x -> x mod 2 = 0) v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 3) v);
  Alcotest.(check int) "count" 2 (Vec.count (fun x -> x > 2) v)

type cell = { k : int; sq : int }

(* Every chunk fits the minor heap, so pushing fresh values allocates no
   major-heap array with a young initializer, which would force a minor
   collection first. 2,000 records (about 10k words with their chunks)
   fit the default minor heap many times over. *)
let test_vec_stays_young () =
  let v = Vec.create () in
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  for k = 0 to 1999 do
    Vec.push v { k; sq = k * k }
  done;
  let after = (Gc.quick_stat ()).Gc.minor_collections in
  Alcotest.(check int) "minor collections while pushing" 0 (after - before);
  Alcotest.(check int) "last" (1999 * 1999) (Vec.get v 1999).sq

(* ------------------------------------------------------------------ *)
(* Allocation *)

(* minor-heap words [f] allocates; reading the counter allocates
   nothing, so an empty [f] reads 0 *)
let minor_words_of f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Every random world and search draws on each scheduling decision: the
   generator's state is unboxed, so a draw allocates nothing. *)
let test_prng_draws_allocate_nothing () =
  let rng = Prng.create 17 and xs = [ 1; 2; 3; 4; 5 ] in
  let sum = ref 0 in
  Alcotest.(check (float 0.)) "an empty measurement" 0.
    (minor_words_of (fun () -> ()));
  Alcotest.(check (float 0.)) "10,000 Prng.int" 0.
    (minor_words_of (fun () ->
         for _ = 1 to 10_000 do
           sum := !sum + Prng.int rng 1_000
         done));
  Alcotest.(check (float 0.)) "10,000 Prng.pick" 0.
    (minor_words_of (fun () ->
         for _ = 1 to 10_000 do
           sum := !sum + Prng.pick rng xs
         done));
  Alcotest.(check bool) "draws were made" true (!sum > 0)

(* A faulted channel's delivery attempt draws one coin per clause and
   the injector keeps each channel's clauses and salt in a table built
   once, so deciding a delivery allocates nothing. *)
let test_fault_decisions_allocate_nothing () =
  let plan =
    Fault.make ~seed:11
      [ Fault.drop ~prob:0.3 "ack_0"; Fault.delay ~chan:"ack_0" ~from_step:5 ~until_step:9 ]
  in
  let w = Fault.inject plan (World.random ~seed:3) in
  let fails = ref 0 and sum = ref 0 in
  let poll step chan =
    match w.World.on_try_recv ~step ~tid:1 ~sid:4 ~chan with
    | World.Force_fail -> incr fails
    | World.Default | World.Force_value _ -> ()
  in
  poll 0 "ack_0";
  Alcotest.(check (float 0.)) "10,000 Prng.coin_bits5" 0.
    (minor_words_of (fun () ->
         for k = 1 to 10_000 do
           sum := !sum lxor Prng.coin_bits5 11 1 k 2 3 4
         done));
  Alcotest.(check (float 0.)) "10,000 delivery decisions" 0.
    (minor_words_of (fun () ->
         for step = 1 to 5_000 do
           poll step "ack_0";
           poll step "ack_1"
         done));
  Alcotest.(check bool) "some deliveries failed" true (!fails > 0 && !sum <> 0)

(* ------------------------------------------------------------------ *)
(* Taint and values *)

let test_taint_ops () =
  let a = Taint.singleton "net" and b = Taint.singleton "disk" in
  let u = Taint.union a b in
  Alcotest.(check bool) "mem net" true (Taint.mem "net" u);
  Alcotest.(check bool) "mem disk" true (Taint.mem "disk" u);
  Alcotest.(check bool) "empty" true (Taint.is_empty Taint.empty);
  Alcotest.(check (list string)) "elements sorted" [ "disk"; "net" ] (Taint.elements u)

let test_value_sizes () =
  Alcotest.(check int) "int" 8 (Value.size_bytes (Value.int 5));
  Alcotest.(check int) "bool" 1 (Value.size_bytes (Value.bool true));
  Alcotest.(check int) "str" 5 (Value.size_bytes (Value.str "hello"));
  Alcotest.(check int) "unit" 0 (Value.size_bytes Value.unit)

let test_value_projections () =
  Alcotest.(check int) "as_int" 7 (Value.as_int (Value.int 7));
  Alcotest.check_raises "as_int of bool"
    (Value.Type_error "expected int, got true") (fun () ->
      ignore (Value.as_int (Value.bool true)))

(* ------------------------------------------------------------------ *)
(* Label / Dsl validation *)

let simple_prog body =
  program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
    ~main:"main"
    [ func "main" [] body ]

let test_label_consecutive () =
  let labeled =
    simple_prog [ assign "x" (i 1); if_ (v "x" =: i 1) [ skip ] [ skip ] ]
  in
  let sids = List.map fst (Label.sites labeled.Label.table) in
  Alcotest.(check (list int)) "consecutive sids" [ 1; 2; 3; 4 ] sids

let test_label_table () =
  let labeled = simple_prog [ store_g "c" (i 5) ] in
  let site = Label.site labeled.Label.table 1 in
  Alcotest.(check string) "fname" "main" site.Label.fname;
  Alcotest.(check string) "kind" "store" site.Label.kind

let test_validate_undeclared_region () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (simple_prog [ store_g "nope" (i 1) ]);
       false
     with Invalid_argument _ -> true)

let test_validate_unknown_main () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (program ~name:"t" ~regions:[] ~inputs:[] ~main:"nope"
            [ func "main" [] [ skip ] ]);
       false
     with Invalid_argument _ -> true)

let test_validate_unknown_input () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (simple_prog [ input "x" "mystery" ]);
       false
     with Invalid_argument _ -> true)

let test_validate_spawned_function () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (simple_prog [ spawn "ghost" [] ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Interpreter: sequential semantics *)

let test_arith () =
  let p = simple_prog [ output "out" ((i 2 +: i 3) *: i 4) ] in
  let r = run p in
  check_status "done" r;
  Alcotest.(check (list value_testable)) "out" [ Value.int 20 ] (outputs_on r "out")

let test_while_loop () =
  let p =
    simple_prog
      [
        assign "s" (i 0);
        assign "k" (i 0);
        while_ (v "k" <: i 5)
          [ assign "s" (v "s" +: v "k"); assign "k" (v "k" +: i 1) ];
        output "out" (v "s");
      ]
  in
  Alcotest.(check (list value_testable)) "sum 0..4" [ Value.int 10 ]
    (outputs_on (run p) "out")

let test_for_sugar () =
  let p =
    simple_prog
      [
        assign "s" (i 0);
        for_ "k" (i 1) (i 4) [ assign "s" (v "s" +: v "k") ];
        output "out" (v "s");
      ]
  in
  Alcotest.(check (list value_testable)) "sum 1..3" [ Value.int 6 ]
    (outputs_on (run p) "out")

let test_call_return () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" []
          [ call ~dest:"r" "double" [ i 21 ]; output "out" (v "r") ];
        func "double" [ "n" ] [ return (v "n" *: i 2) ];
      ]
  in
  Alcotest.(check (list value_testable)) "call result" [ Value.int 42 ]
    (outputs_on (run p) "out")

let test_implicit_unit_return () =
  let p =
    program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" [] [ call ~dest:"r" "proc" []; output "out" (v "r") ];
        func "proc" [] [ store_g "c" (i 1) ];
      ]
  in
  Alcotest.(check (list value_testable)) "unit" [ Value.unit ]
    (outputs_on (run p) "out")

let test_string_ops () =
  let p =
    simple_prog
      [
        assign "a" (s "foo" ^: s "bar");
        output "out" (v "a");
        output "len" (str_len (v "a"));
      ]
  in
  let r = run p in
  Alcotest.(check (list value_testable)) "concat" [ Value.str "foobar" ]
    (outputs_on r "out");
  Alcotest.(check (list value_testable)) "len" [ Value.int 6 ] (outputs_on r "len")

let test_min_max_mod () =
  let p =
    simple_prog
      [
        output "out" (min_ (i 3) (i 5));
        output "out" (max_ (i 3) (i 5));
        output "out" (i 17 %: i 5);
      ]
  in
  Alcotest.(check (list value_testable)) "min/max/mod"
    [ Value.int 3; Value.int 5; Value.int 2 ]
    (outputs_on (run p) "out")

let test_output_order () =
  let p =
    simple_prog [ output "a" (i 1); output "b" (i 2); output "a" (i 3) ]
  in
  let r = run p in
  Alcotest.(check (list value_testable)) "a" [ Value.int 1; Value.int 3 ]
    (outputs_on r "a");
  Alcotest.(check (list value_testable)) "b" [ Value.int 2 ] (outputs_on r "b")

(* ------------------------------------------------------------------ *)
(* Interpreter: crashes *)

let test_div_by_zero () =
  let p = simple_prog [ output "out" (i 1 /: i 0) ] in
  let r = run p in
  check_status "crashed" r;
  match r.failure with
  | Some (Failure.Crash { msg; _ }) ->
    Alcotest.(check string) "msg" "division by zero" msg
  | _ -> Alcotest.fail "expected crash failure"

let test_array_bounds_crash () =
  let p =
    program ~name:"t" ~regions:[ array "a" 3 (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [ func "main" [] [ store "a" (i 7) (i 1) ] ]
  in
  check_status "crashed" (run p)

let test_assert_failure () =
  let p = simple_prog [ assert_ (i 1 =: i 2) "one-is-two" ] in
  let r = run p in
  check_status "crashed" r;
  match r.failure with
  | Some (Failure.Crash { msg; _ }) ->
    Alcotest.(check string) "msg" "assertion failed: one-is-two" msg
  | _ -> Alcotest.fail "expected crash"

let test_fail_stmt () =
  let p = simple_prog [ fail "boom" ] in
  check_status "crashed" (run p)

let test_unbound_variable () =
  let p = simple_prog [ output "out" (v "ghost") ] in
  check_status "crashed" (run p)

let test_crash_sid_stable () =
  let p = simple_prog [ skip; fail "boom" ] in
  let r1 = run p and r2 = run p in
  match r1.failure, r2.failure with
  | Some f1, Some f2 ->
    Alcotest.(check bool) "same failure identity" true (Failure.equal f1 f2)
  | _ -> Alcotest.fail "expected crashes"

let test_type_error_crashes () =
  let p = simple_prog [ output "out" (i 1 +: b true) ] in
  check_status "crashed" (run p)

(* ------------------------------------------------------------------ *)
(* Interpreter: concurrency *)

let counter_prog ~locked ~iters =
  let bump =
    if locked then
      [ lock "m"; assign "t" (g "c"); store_g "c" (v "t" +: i 1); unlock "m" ]
    else [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ]
  in
  program ~name:"counter" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
    ~main:"main"
    [
      func "main" []
        [
          spawn "w" []; spawn "w" [];
          (* wait for both workers *)
          recv "d1" "done"; recv "d2" "done";
          output "out" (g "c");
        ];
      func "w" []
        [ for_ "k" (i 0) (i iters) bump; send "done" (i 1) ];
    ]

let test_locked_counter_correct () =
  (* Under any schedule, lock-protected increments never lose updates. *)
  for seed = 1 to 20 do
    let r = run ~world:(World.random ~seed) (counter_prog ~locked:true ~iters:10) in
    check_status "done" r;
    Alcotest.(check (list value_testable))
      (Printf.sprintf "seed %d" seed)
      [ Value.int 20 ] (outputs_on r "out")
  done

let test_racy_counter_loses_updates () =
  (* The unlocked counter has a lost-update race; some schedule must expose
     it. This is the VM's raison d'etre, so fail loudly if no seed does. *)
  let lost =
    List.exists
      (fun seed ->
        let r = run ~world:(World.random ~seed) (counter_prog ~locked:false ~iters:10) in
        match outputs_on r "out" with
        | [ Value.Vint n ] -> n < 20
        | _ -> false)
      (List.init 50 (fun k -> k + 1))
  in
  Alcotest.(check bool) "some seed loses updates" true lost

let test_atomic_counter_correct () =
  let p =
    program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ] ~inputs:[]
      ~main:"main"
      [
        func "main" []
          [
            spawn "w" []; spawn "w" [];
            recv "d1" "done"; recv "d2" "done";
            output "out" (g "c");
          ];
        func "w" []
          [
            for_ "k" (i 0) (i 10)
              [ atomic [ assign "t" (g "c"); store_g "c" (v "t" +: i 1) ] ];
            send "done" (i 1);
          ];
      ]
  in
  for seed = 1 to 20 do
    let r = run ~world:(World.random ~seed) p in
    Alcotest.(check (list value_testable))
      (Printf.sprintf "seed %d" seed)
      [ Value.int 20 ] (outputs_on r "out")
  done

let test_deadlock_detected () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [ func "main" [] [ recv "x" "never" ] ]
  in
  let r = run p in
  check_status "deadlock" r;
  match r.failure with
  | Some Failure.Hang -> ()
  | _ -> Alcotest.fail "deadlock should be a Hang failure"

let test_abba_deadlock () =
  (* Classic lock-order inversion: some schedule deadlocks. *)
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" [] [ spawn "a" []; spawn "b" []; recv "x" "never" ];
        func "a" [] [ lock "m1"; yield; lock "m2"; unlock "m2"; unlock "m1" ];
        func "b" [] [ lock "m2"; yield; lock "m1"; unlock "m1"; unlock "m2" ];
      ]
  in
  let deadlocked =
    List.exists
      (fun seed ->
        match (run ~world:(World.random ~seed) p).status with
        | Interp.Deadlock -> true
        | _ -> false)
      (List.init 50 (fun k -> k + 1))
  in
  Alcotest.(check bool) "some seed deadlocks" true deadlocked

let test_step_limit () =
  let p = simple_prog [ while_ (b true) [ skip ] ] in
  let r = run ~max_steps:100 p in
  check_status "step-limit" r;
  Alcotest.(check int) "steps" 100 r.steps

let test_relock_crashes () =
  let p = simple_prog [ lock "m"; lock "m" ] in
  check_status "crashed" (run p)

let test_unlock_not_held_crashes () =
  let p = simple_prog [ unlock "m" ] in
  check_status "crashed" (run p)

let test_try_recv_empty () =
  let p =
    simple_prog
      [
        try_recv "ok" "x" "ch";
        if_ (v "ok") [ output "out" (i 1) ] [ output "out" (i 0) ];
      ]
  in
  Alcotest.(check (list value_testable)) "no message" [ Value.int 0 ]
    (outputs_on (run p) "out")

let test_channel_fifo () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" []
          [
            send "ch" (i 1); send "ch" (i 2); send "ch" (i 3);
            recv "a" "ch"; recv "b" "ch"; recv "c" "ch";
            output "out" (v "a"); output "out" (v "b"); output "out" (v "c");
          ];
      ]
  in
  Alcotest.(check (list value_testable)) "fifo"
    [ Value.int 1; Value.int 2; Value.int 3 ]
    (outputs_on (run p) "out")

let test_blocked_recv_wakes () =
  let p =
    program ~name:"t" ~regions:[] ~inputs:[] ~main:"main"
      [
        func "main" [] [ spawn "producer" []; recv "x" "ch"; output "out" (v "x") ];
        func "producer" [] [ send "ch" (i 99) ];
      ]
  in
  for seed = 1 to 10 do
    let r = run ~world:(World.random ~seed) p in
    Alcotest.(check (list value_testable))
      (Printf.sprintf "seed %d" seed)
      [ Value.int 99 ] (outputs_on r "out")
  done

(* ------------------------------------------------------------------ *)
(* Worlds, inputs, taint *)

let input_prog =
  program ~name:"t" ~regions:[] ~inputs:[ ("in0", List.init 5 Value.int) ]
    ~main:"main"
    [ func "main" [] [ input "x" "in0"; output "out" (v "x") ] ]

let test_input_from_domain () =
  for seed = 1 to 20 do
    match outputs_on (run ~world:(World.random ~seed) input_prog) "out" with
    | [ Value.Vint n ] ->
      if n < 0 || n > 4 then Alcotest.fail "input outside domain"
    | _ -> Alcotest.fail "expected one int output"
  done

let test_round_robin_picks_first () =
  Alcotest.(check (list value_testable)) "first domain value" [ Value.int 0 ]
    (outputs_on (run input_prog) "out")

let test_same_seed_same_trace () =
  let p = counter_prog ~locked:false ~iters:5 in
  let r1 = run ~world:(World.random ~seed:11) p in
  let r2 = run ~world:(World.random ~seed:11) p in
  Alcotest.(check (list (pair int int)))
    "identical schedules"
    (Trace.sched_points r1.trace)
    (Trace.sched_points r2.trace);
  Alcotest.(check bool) "identical outputs" true (r1.outputs = r2.outputs)

let test_taint_propagates_to_output () =
  let p =
    program ~name:"t" ~regions:[ scalar "c" (Value.int 0) ]
      ~inputs:[ ("net", [ Value.int 1; Value.int 2 ]) ]
      ~main:"main"
      [
        func "main" []
          [
            input "x" "net";
            store_g "c" (v "x" +: i 10);
            assign "y" (g "c");
            output "out" (v "y");
          ];
      ]
  in
  let r = run p in
  let tainted_out =
    Trace.exists
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Out io -> Taint.mem "net" io.value.Value.taint
        | _ -> false)
      r.trace
  in
  Alcotest.(check bool) "output carries net taint" true tainted_out

let test_const_untainted () =
  let p = simple_prog [ output "out" (i 1) ] in
  let r = run p in
  let clean =
    Trace.exists
      (fun (e : Event.t) ->
        match e.kind with
        | Event.Out io -> Taint.is_empty io.value.Value.taint
        | _ -> false)
      r.trace
  in
  Alcotest.(check bool) "constant output untainted" true clean

(* ------------------------------------------------------------------ *)
(* Trace queries *)

let test_trace_writes_and_reconstruction () =
  let p =
    simple_prog
      [ store_g "c" (i 1); store_g "c" (i 2); store_g "c" (i 3) ]
  in
  let r = run p in
  let writes = Trace.writes_to_scalar r.trace "c" in
  Alcotest.(check int) "three writes" 3 (List.length writes);
  let steps = List.map (fun (s, _, _) -> s) writes in
  (* value as of just before the step of the second write *)
  let mid = Trace.scalar_at r.trace "c" ~init:(Value.int 0) ~step:(List.nth steps 1) in
  Alcotest.check value_testable "value before second write" (Value.int 1) mid;
  let final = Trace.scalar_at r.trace "c" ~init:(Value.int 0) ~step:max_int in
  Alcotest.check value_testable "final value" (Value.int 3) final

let test_trace_inputs_on () =
  let r = run input_prog in
  match Trace.inputs_on r.trace "in0" with
  | [ (_, _, v) ] -> Alcotest.check value_testable "input recorded" (Value.int 0) v
  | _ -> Alcotest.fail "expected exactly one input event"

let test_trace_steps_counted () =
  let p = simple_prog [ skip; skip; skip ] in
  let r = run p in
  Alcotest.(check int) "steps equal Step events" r.steps (Trace.steps r.trace);
  Alcotest.(check int) "three steps" 3 r.steps

let test_trace_reads_by () =
  let p =
    simple_prog [ store_g "c" (i 7); assign "x" (g "c"); output "out" (v "x") ]
  in
  let r = run p in
  Alcotest.(check (list value_testable)) "thread 0 reads" [ Value.int 7 ]
    (Trace.reads_by r.trace 0)

let test_sched_points_shape () =
  let p = simple_prog [ skip; skip ] in
  let r = run p in
  Alcotest.(check (list (pair int int)))
    "two steps by thread 0" [ (0, 1); (0, 2) ]
    (Trace.sched_points r.trace)

(* ------------------------------------------------------------------ *)
(* Spec *)

let test_spec_violation () =
  let p = simple_prog [ output "out" (i 5) ] in
  let spec =
    Spec.make "wants-four" (fun r ->
        match List.assoc_opt "out" r.Interp.outputs with
        | Some [ Value.Vint 4 ] -> Ok ()
        | _ -> Error "not-four")
  in
  let r = Spec.apply spec (run p) in
  match r.failure with
  | Some (Failure.Spec_violation "not-four") -> ()
  | _ -> Alcotest.fail "expected spec violation"

let test_spec_pass () =
  let p = simple_prog [ output "out" (i 5) ] in
  let r = Spec.apply Spec.accept_all (run p) in
  Alcotest.(check bool) "no failure" true (r.failure = None)

let test_spec_keeps_crash () =
  let p = simple_prog [ fail "boom" ] in
  let r = Spec.apply Spec.accept_all (run p) in
  match r.failure with
  | Some (Failure.Crash _) -> ()
  | _ -> Alcotest.fail "crash must survive spec application"

let test_outputs_equal_spec () =
  let p = simple_prog [ output "out" (i 1) ] in
  let r = run p in
  let good = Spec.outputs_equal ~expected:[ ("out", [ Value.int 1 ]) ] in
  let bad = Spec.outputs_equal ~expected:[ ("out", [ Value.int 2 ]) ] in
  Alcotest.(check bool) "accepts" true ((Spec.apply good r).failure = None);
  Alcotest.(check bool) "rejects" false ((Spec.apply bad r).failure = None)

(* ------------------------------------------------------------------ *)
(* Abort hook and monitors *)

let test_abort_hook () =
  let p = simple_prog [ skip; skip; skip; skip ] in
  let abort (e : Event.t) = if e.step >= 2 then Some "enough" else None in
  let r = Interp.run ~abort p (World.round_robin ()) in
  check_status "aborted" r

let test_monitors_see_all_events () =
  let p = simple_prog [ store_g "c" (i 1); output "out" (g "c") ] in
  let seen = ref 0 in
  let r = Interp.run ~monitors:[ (fun _ -> incr seen) ] p (World.round_robin ()) in
  Alcotest.(check int) "monitor saw every event" (Trace.length r.trace) !seen

(* ------------------------------------------------------------------ *)
(* Proggen *)

let test_proggen_deterministic () =
  let p1 = Proggen.generate Proggen.default (Prng.create 5) in
  let p2 = Proggen.generate Proggen.default (Prng.create 5) in
  let pp p = Format.asprintf "%a" Ast.pp_program p.Label.prog in
  Alcotest.(check string) "same seed, same program" (pp p1) (pp p2)

let test_proggen_runs_clean () =
  (* Generated programs must terminate without crashing under any seed. *)
  for pseed = 1 to 10 do
    let p = Proggen.generate Proggen.default (Prng.create pseed) in
    for wseed = 1 to 5 do
      let r = Interp.run ~max_steps:50_000 p (World.random ~seed:wseed) in
      match r.status with
      | Interp.Done -> ()
      | st ->
        Alcotest.fail
          (Printf.sprintf "program %d seed %d: %s" pseed wseed
             (Interp.status_to_string st))
    done
  done

(* ------------------------------------------------------------------ *)
(* Compiled interpreter parity: Interp.run_compiled must reproduce the
   reference AST walker (Ref_interp) byte for byte — same events, steps,
   outputs, failure — on every program and world. *)

let same_result name (a : Interp.result) (b : Interp.result) =
  Alcotest.(check string)
    (name ^ ": status")
    (Interp.status_to_string a.status)
    (Interp.status_to_string b.status);
  Alcotest.(check int) (name ^ ": steps") a.steps b.steps;
  Alcotest.(check bool)
    (name ^ ": events")
    true
    (Trace.events a.trace = Trace.events b.trace);
  Alcotest.(check bool) (name ^ ": outputs") true (a.outputs = b.outputs);
  Alcotest.(check bool) (name ^ ": failure") true (a.failure = b.failure)

(* the channels [prog] sends on *)
let sent_chans prog =
  Ast.fold_stmts
    (fun acc _ (st : Ast.stmt) ->
      match st.Ast.node with
      | Ast.Send (c, _) when not (List.mem c acc) -> c :: acc
      | _ -> acc)
    [] prog

(* Every world shape picks by index from the interpreter's array: the
   round-robin and random worlds, a prioritized one (hot at every third
   site), and a random one under a plan that stalls thread 1, crashes
   thread 2 and duplicates on every sent channel, which compacts the
   live candidates into its own array and may force any receive. *)
let check_parity ?(seeds = [ 1; 2; 3; 4; 5 ]) (labeled : Label.labeled) =
  let c = Interp.compile labeled in
  let name = labeled.Label.prog.Ast.name in
  let go world_of =
    let r_ast = Ref_interp.run ~max_steps:50_000 labeled (world_of ()) in
    let r_c = Interp.run_compiled ~max_steps:50_000 c (world_of ()) in
    same_result name r_ast r_c
  in
  let faults sd =
    Fault.make ~seed:sd
      (Fault.stall ~tid:1 ~from_step:2 ~until_step:12
      :: Fault.crash ~tid:2 ~at_step:15
      :: List.map (Fault.duplicate ~prob:0.3) (sent_chans labeled.Label.prog))
  in
  go (fun () -> World.round_robin ());
  List.iter
    (fun sd ->
      go (fun () -> World.random ~seed:sd);
      (* the uncached candidate path (a world that may force anything)
         must agree too *)
      go (fun () -> { (World.random ~seed:sd) with World.forcing = World.Anything });
      go (fun () ->
          World.prioritized ~seed:sd ~prefer:(fun cd -> cd.World.sid mod 3 = 0));
      go (fun () -> Fault.inject (faults sd) (World.random ~seed:sd)))
    seeds

let sink_prog =
  program ~name:"sink"
    ~regions:[ scalar "acc" (Value.int 0); array "buf" 4 (Value.int 0) ]
    ~inputs:[ ("cfg", [ Value.int 1; Value.int 2 ]) ]
    ~main:"main"
    [
      func "add" [ "k" ]
        [ store_g "acc" (g "acc" +: v "k"); return (g "acc") ];
      func "worker" [ "n" ]
        [
          lock "m";
          store "buf" (v "n" %: i 4) (v "n" *: i 2);
          unlock "m";
          send "ch" (v "n");
        ];
      func "main" []
        [
          input "x" "cfg";
          spawn "worker" [ i 1 ];
          spawn "worker" [ i 2 ];
          call ~dest:"r" "add" [ v "x" ];
          call "add" [ i 3 ];
          assign "i" (i 0);
          while_
            (v "i" <: i 3)
            [
              store "buf" (v "i") (idx "buf" (v "i") +: v "r");
              assign "i" (v "i" +: i 1);
            ];
          atomic
            [
              assign "j" (i 0);
              while_
                (v "j" <: i 2)
                [ store_g "acc" (g "acc" +: i 1); assign "j" (v "j" +: i 1) ];
              if_ (g "acc" >: i 0) [ send "ch" (i 99) ] [ skip ];
            ];
          recv "a" "ch";
          recv "b" "ch";
          recv "c" "ch";
          try_recv "ok" "d" "ch";
          if_ (v "ok") [ output "out" (v "d") ] [ output "out" (i (-1)) ];
          output "out" (max_ (v "a") (min_ (v "b") (v "c")));
          output "out" (s "x=" ^: s "done");
          assert_ (g "acc" >=: i 0) "acc nonneg";
          yield;
        ];
    ]

let crash_progs =
  let one name body = simple_prog body |> fun l ->
    ({ l with Label.prog = { l.Label.prog with Ast.name } } : Label.labeled)
  in
  [
    one "div-zero" [ output "out" (i 1 /: i 0) ];
    one "mod-zero" [ output "out" (i 1 %: i 0) ];
    one "unbound" [ assign "x" (v "nope") ];
    one "type-error" [ output "out" (i 1 +: b true) ];
    one "assert-fail" [ assert_ (i 1 =: i 2) "boom" ];
    one "fail" [ fail "kaput" ];
    one "relock" [ lock "m"; lock "m" ];
    one "bad-unlock" [ unlock "m" ];
    one "deadlock" [ recv "x" "never" ];
    one "atomic-recv" [ atomic [ recv "x" "never" ] ];
    one "atomic-budget" [ atomic [ while_ (b true) [ skip ] ] ];
    (* the writes before "atomic budget exhausted" pin what the budget
       counts: each loop test and each nested atomic, never a jump *)
    one "atomic-budget-writes"
      [ atomic [ while_ (b true) [ store_g "c" (g "c" +: i 1) ] ] ];
    one "atomic-budget-nested"
      [ atomic [ while_ (b true) [ atomic [ store_g "c" (g "c" +: i 1) ] ] ] ];
    one "atomic-return" [ atomic [ store_g "c" (i 1); return (i 0) ] ];
    one "atomic-relock" [ lock "m"; atomic [ lock "m" ] ];
    program ~name:"oob-load"
      ~regions:[ array "buf" 4 (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [ func "main" [] [ output "out" (idx "buf" (i 9)) ] ];
    program ~name:"oob-store"
      ~regions:[ array "buf" 4 (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [ func "main" [] [ store "buf" (i (-1)) (i 5) ] ];
  ]

let arity_progs =
  (* Label.validate checks names, not arity: arity mismatches crash at
     call time and both interpreters must report them identically. *)
  let mk name stmts =
    program ~name
      ~regions:[ scalar "c" (Value.int 0) ]
      ~inputs:[] ~main:"main"
      [ func "f" [ "a"; "b" ] [ skip ]; func "main" [] stmts ]
  in
  [
    mk "arity-call" [ call "f" [ i 1 ] ];
    mk "arity-spawn" [ spawn "f" [ i 1; i 2; i 3 ] ];
    mk "atomic-call" [ atomic [ call "f" [ i 1; i 2 ] ] ];
    mk "atomic-spawn" [ atomic [ spawn "f" [ i 1; i 2 ] ] ];
  ]

(* Slots that come to hold unit without any expression computing it:
   the variable of a try_recv that missed, and the destination of a call
   whose function ended without [return]. Reading either back must give
   unit, never the compiled interpreter's "unbound variable" crash,
   whatever the compiler inlined. *)
let unit_reads_prog =
  program ~name:"unit-reads" ~regions:[] ~inputs:[] ~main:"main"
    [
      func "main" []
        [
          try_recv "ok" "d" "empty";
          output "out" (v "d");
          call ~dest:"r" "noop" [];
          output "out" (v "r");
        ];
      func "noop" [] [ skip ];
    ]

let test_compiled_parity_sink () = check_parity sink_prog

(* A world's answer is an index into the candidates it was handed: one
   outside [0, n) raises [Invalid_argument] on both interpreters, at the
   first step or a later one. *)
let test_out_of_range_pick () =
  List.iter
    (fun (what, pick) ->
      let world () = { (World.random ~seed:1) with World.pick_thread = pick } in
      List.iter
        (fun (interp, run) ->
          match run (world ()) with
          | (_ : Interp.result) ->
            Alcotest.failf "%s: a world answering %s ran" interp what
          | exception Invalid_argument _ -> ())
        [
          ("compiled", fun w -> Interp.run sink_prog w);
          ("walker", fun w -> Ref_interp.run sink_prog w);
        ])
    [
      ("-1 at step 0", fun ~step:_ _ _ -> -1);
      ("n at step 3", fun ~step _ n -> if step = 3 then n else 0);
    ]

(* ------------------------------------------------------------------ *)
(* The forcing promise (World.forcing): what may wake a blocked receive
   between steps decides what the candidate cache may keep, so each
   promise must give the walker's run on the compiled interpreter. *)

let forcing_name = function
  | World.Never -> "never"
  | World.Own_steps -> "own steps"
  | World.Anything -> "anything"

let forcing_testable =
  Alcotest.testable (fun ppf f -> Format.pp_print_string ppf (forcing_name f)) ( = )

(* The worker's receive completes only through a value the world forces
   for it, from state only the worker's own steps change: its second read
   of [s] arms the force, and its receive consumes it. Meanwhile main
   and the spinner take purely local steps, which patch the cache
   instead of rebuilding it, so only the stepping thread's patch can put
   the worker back among the candidates. *)
let forced_prog =
  program ~name:"forced"
    ~regions:[ scalar "s" (Value.int 1) ]
    ~inputs:[] ~main:"main"
    [
      func "worker" []
        [
          assign "a" (g "s");
          assign "b" (g "s");
          recv "x" "ch";
          output "out" (v "x" +: v "a" +: v "b");
        ];
      func "spin" [ "n" ]
        [
          assign "i" (i 0);
          while_ (v "i" <: v "n") [ assign "i" (v "i" +: i 1) ];
          output "spun" (v "i");
        ];
      func "main" []
        [
          spawn "worker" [];
          spawn "spin" [ i 6 ];
          assign "k" (i 0);
          while_ (v "k" <: i 4) [ assign "k" (v "k" +: i 1) ];
          output "main" (v "k");
        ];
    ]

(* a random world that keeps [forcing]: unless that promise is [Never],
   a thread that has read twice and not yet received is forced 40 *)
let forcing_world forcing ~seed =
  let reads = Array.make 4 0 and received = Array.make 4 false in
  {
    (World.random ~seed) with
    World.on_read =
      (fun ~step:_ ~tid ~sid:_ ~region:_ ~index:_ ~actual ->
        reads.(tid) <- reads.(tid) + 1;
        actual);
    on_recv =
      (fun ~step:_ ~tid ~sid:_ ~chan:_ ~actual ->
        received.(tid) <- true;
        actual);
    on_try_recv =
      (fun ~step:_ ~tid ~sid:_ ~chan:_ ->
        if forcing <> World.Never && reads.(tid) >= 2 && not received.(tid)
        then World.Force_value (Value.untainted (Value.int 40))
        else World.Default);
    forcing;
  }

let test_forcing_promises () =
  let c = Interp.compile forced_prog in
  List.iter
    (fun (forcing, status, out) ->
      for seed = 1 to 8 do
        let name = Printf.sprintf "%s, seed %d" (forcing_name forcing) seed in
        let r = Interp.run_compiled c (forcing_world forcing ~seed) in
        same_result name
          (Ref_interp.run forced_prog (forcing_world forcing ~seed))
          r;
        check_status status r;
        Alcotest.(check (list value_testable)) (name ^ ": out") out (outputs_on r "out")
      done)
    [
      (World.Never, "deadlock", []);
      (World.Own_steps, "done", [ Value.int 42 ]);
      (World.Anything, "done", [ Value.int 42 ]);
    ]

(* Only [Duplicate] makes a fault world force a receive to succeed, so
   only a plan with a [Duplicate] clause takes a never-forcing world off
   the candidate cache; a plan over a world that forces per thread
   declares [Anything], since its step-dependent misses decide when the
   forced receive may run. Here a duplicate is the only way the worker's
   second receive can complete: a faulted world that claimed never to
   force would leave it blocked on the compiled interpreter, while the
   walker, which asks the world about every blocked receive, runs it. *)
let dup_prog =
  program ~name:"dup" ~regions:[] ~inputs:[] ~main:"main"
    [
      func "worker" []
        [ recv "x" "ch"; recv "y" "ch"; output "out" (v "x" +: v "y") ];
      func "main" [] [ spawn "worker" []; send "ch" (i 20) ];
    ]

let test_fault_world_forcing () =
  let world plan = Fault.inject plan (World.random ~seed:3) in
  let dup = Fault.make ~seed:1 [ Fault.duplicate ~prob:1.0 "ch" ] in
  let drop = Fault.make ~seed:1 [ Fault.drop ~prob:0.5 "ch" ] in
  Alcotest.check forcing_testable "a duplicating world may force anything"
    World.Anything (world dup).World.forcing;
  List.iter
    (fun plan ->
      Alcotest.check forcing_testable
        (Fault.to_string plan ^ " never forces")
        World.Never (world plan).World.forcing)
    [
      drop;
      Fault.make ~seed:1
        [
          Fault.delay ~chan:"ch" ~from_step:0 ~until_step:5;
          Fault.stall ~tid:1 ~from_step:0 ~until_step:3;
        ];
    ];
  let own = forcing_world World.Own_steps ~seed:3 in
  Alcotest.check forcing_testable "the empty plan keeps an own-steps world's promise"
    World.Own_steps (Fault.inject Fault.none own).World.forcing;
  Alcotest.check forcing_testable "a plan over an own-steps world may force anything"
    World.Anything (Fault.inject drop own).World.forcing;
  let r = Interp.run dup_prog (world dup) in
  check_status "done" r;
  same_result "dup" (Ref_interp.run dup_prog (world dup)) r

let test_compiled_parity_unit_reads () =
  check_parity unit_reads_prog;
  Alcotest.(check (list value_testable))
    "unit outputs" [ Value.unit; Value.unit ]
    (outputs_on (run unit_reads_prog) "out")

let test_compiled_parity_crashes () =
  List.iter (fun p -> check_parity ~seeds:[ 1; 2 ] p) crash_progs;
  List.iter (fun p -> check_parity ~seeds:[ 1; 2 ] p) arity_progs

let test_compiled_parity_corpus () =
  for pseed = 1 to 10 do
    let p = Proggen.generate Proggen.default (Prng.create pseed) in
    check_parity p
  done

let test_compiled_state_isolation () =
  (* Runs share the compiled program, never their exec state: running a
     mutating program twice on one compiled value, and once more through
     [Interp.run] (which takes the same value from the compile cache),
     gives identical results. *)
  let c = Interp.compile sink_prog in
  let r1 = Interp.run_compiled c (World.random ~seed:7) in
  let r2 = Interp.run_compiled c (World.random ~seed:7) in
  let r3 = Interp.run sink_prog (World.random ~seed:7) in
  same_result "state-isolation" r1 r2;
  same_result "state-isolation via run" r1 r3

(* [Interp.compile] lowers a program once per domain: the same labelled
   program gives back the same compiled value, including after the
   domain has compiled a few others in between, as a session's runs and
   a benchmark mix's sessions alternate. *)
let proggen pseed = Proggen.generate Proggen.default (Prng.create pseed)

let test_compile_once () =
  let p = proggen 1 and q = proggen 2 and r = proggen 3 in
  let c = Interp.compile p in
  Alcotest.(check bool) "same program, same compiled value" true
    (Interp.compile p == c);
  let cq = Interp.compile q and cr = Interp.compile r in
  Alcotest.(check bool) "kept while alternating" true
    (Interp.compile p == c && Interp.compile q == cq && Interp.compile r == cr);
  Alcotest.(check bool) "a structurally equal copy is another program" false
    (Interp.compile (proggen 1) == c)

(* The cache is bounded by a constant (8 programs): after 32 other
   programs the first is lowered afresh. *)
let test_compile_cache_bounded () =
  let p = proggen 1 in
  let c = Interp.compile p in
  for pseed = 100 to 131 do
    ignore (Interp.compile (proggen pseed))
  done;
  let again = Interp.compile p in
  Alcotest.(check bool) "evicted: a fresh compiled value" false (again == c);
  same_result "the fresh value runs the same"
    (Interp.run_compiled c (World.random ~seed:3))
    (Interp.run_compiled again (World.random ~seed:3))

(* each domain keeps its own cache *)
let test_compile_per_domain () =
  let p = proggen 4 in
  let c = Interp.compile p in
  let fresh, cached =
    Domain.join
      (Domain.spawn (fun () ->
           let d = Interp.compile p in
           (d != c, Interp.compile p == d)))
  in
  Alcotest.(check bool) "a spawned domain compiles its own copy" true fresh;
  Alcotest.(check bool) "and reuses it" true cached;
  Alcotest.(check bool) "the first domain's copy stays" true
    (Interp.compile p == c)

let () =
  Alcotest.run "mvm"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_prng_seeds_differ;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "pick" `Quick test_prng_pick;
          Alcotest.test_case "copy" `Quick test_prng_copy;
          Alcotest.test_case "float range" `Quick test_prng_float;
          Alcotest.test_case "stateless coin" `Quick test_prng_coin;
          Alcotest.test_case "fault coins pinned by value" `Quick
            test_fault_coins_pinned;
          Alcotest.test_case "stream pinned by value" `Quick
            test_prng_stream_pinned;
          Alcotest.test_case "int equals the division's draw, bounds 1-64" `Quick
            test_prng_int_is_mod;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "list roundtrip" `Quick test_vec_list_roundtrip;
          Alcotest.test_case "fold/filter" `Quick test_vec_fold_filter;
          Alcotest.test_case "pushes stay on the minor heap" `Quick
            test_vec_stays_young;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "PRNG draws allocate nothing" `Quick
            test_prng_draws_allocate_nothing;
          Alcotest.test_case "fault delivery decisions allocate nothing" `Quick
            test_fault_decisions_allocate_nothing;
        ] );
      ( "value",
        [
          Alcotest.test_case "taint ops" `Quick test_taint_ops;
          Alcotest.test_case "sizes" `Quick test_value_sizes;
          Alcotest.test_case "projections" `Quick test_value_projections;
        ] );
      ( "label",
        [
          Alcotest.test_case "consecutive sids" `Quick test_label_consecutive;
          Alcotest.test_case "site table" `Quick test_label_table;
          Alcotest.test_case "undeclared region" `Quick test_validate_undeclared_region;
          Alcotest.test_case "unknown main" `Quick test_validate_unknown_main;
          Alcotest.test_case "unknown input" `Quick test_validate_unknown_input;
          Alcotest.test_case "unknown spawn target" `Quick test_validate_spawned_function;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "arithmetic" `Quick test_arith;
          Alcotest.test_case "while" `Quick test_while_loop;
          Alcotest.test_case "for sugar" `Quick test_for_sugar;
          Alcotest.test_case "call/return" `Quick test_call_return;
          Alcotest.test_case "implicit return" `Quick test_implicit_unit_return;
          Alcotest.test_case "strings" `Quick test_string_ops;
          Alcotest.test_case "min/max/mod" `Quick test_min_max_mod;
          Alcotest.test_case "output order" `Quick test_output_order;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "array bounds" `Quick test_array_bounds_crash;
          Alcotest.test_case "assert" `Quick test_assert_failure;
          Alcotest.test_case "fail" `Quick test_fail_stmt;
          Alcotest.test_case "unbound var" `Quick test_unbound_variable;
          Alcotest.test_case "crash identity stable" `Quick test_crash_sid_stable;
          Alcotest.test_case "type error" `Quick test_type_error_crashes;
        ] );
      ( "concurrency",
        [
          Alcotest.test_case "locked counter" `Quick test_locked_counter_correct;
          Alcotest.test_case "racy counter" `Quick test_racy_counter_loses_updates;
          Alcotest.test_case "atomic counter" `Quick test_atomic_counter_correct;
          Alcotest.test_case "recv deadlock" `Quick test_deadlock_detected;
          Alcotest.test_case "ABBA deadlock" `Quick test_abba_deadlock;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "relock crash" `Quick test_relock_crashes;
          Alcotest.test_case "bad unlock crash" `Quick test_unlock_not_held_crashes;
          Alcotest.test_case "try_recv empty" `Quick test_try_recv_empty;
          Alcotest.test_case "channel fifo" `Quick test_channel_fifo;
          Alcotest.test_case "recv wakes" `Quick test_blocked_recv_wakes;
        ] );
      ( "worlds",
        [
          Alcotest.test_case "input domain" `Quick test_input_from_domain;
          Alcotest.test_case "round robin input" `Quick test_round_robin_picks_first;
          Alcotest.test_case "seed reproducibility" `Quick test_same_seed_same_trace;
          Alcotest.test_case "taint propagation" `Quick test_taint_propagates_to_output;
          Alcotest.test_case "const untainted" `Quick test_const_untainted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "writes/reconstruction" `Quick test_trace_writes_and_reconstruction;
          Alcotest.test_case "inputs_on" `Quick test_trace_inputs_on;
          Alcotest.test_case "steps counted" `Quick test_trace_steps_counted;
          Alcotest.test_case "reads_by" `Quick test_trace_reads_by;
          Alcotest.test_case "sched points" `Quick test_sched_points_shape;
        ] );
      ( "spec",
        [
          Alcotest.test_case "violation" `Quick test_spec_violation;
          Alcotest.test_case "pass" `Quick test_spec_pass;
          Alcotest.test_case "keeps crash" `Quick test_spec_keeps_crash;
          Alcotest.test_case "outputs_equal" `Quick test_outputs_equal_spec;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "abort" `Quick test_abort_hook;
          Alcotest.test_case "monitors" `Quick test_monitors_see_all_events;
        ] );
      ( "proggen",
        [
          Alcotest.test_case "deterministic" `Quick test_proggen_deterministic;
          Alcotest.test_case "runs clean" `Quick test_proggen_runs_clean;
        ] );
      ( "compiled",
        [
          Alcotest.test_case "kitchen-sink parity" `Quick
            test_compiled_parity_sink;
          Alcotest.test_case "crash parity" `Quick test_compiled_parity_crashes;
          Alcotest.test_case "proggen corpus parity" `Quick
            test_compiled_parity_corpus;
          Alcotest.test_case "arena isolation" `Quick
            test_compiled_state_isolation;
          Alcotest.test_case "unit-reads parity" `Quick
            test_compiled_parity_unit_reads;
          Alcotest.test_case "compiled once per domain" `Quick
            test_compile_once;
          Alcotest.test_case "compile cache bounded" `Quick
            test_compile_cache_bounded;
          Alcotest.test_case "a domain compiles its own copy" `Quick
            test_compile_per_domain;
          Alcotest.test_case "a pick outside the candidates is refused" `Quick
            test_out_of_range_pick;
        ] );
      ( "forcing",
        [
          Alcotest.test_case "each forcing promise runs as on the walker"
            `Quick test_forcing_promises;
          Alcotest.test_case
            "fault worlds never force unless they duplicate or wrap a forcing world"
            `Quick test_fault_world_forcing;
        ] );
    ]
