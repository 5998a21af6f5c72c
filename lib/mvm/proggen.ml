open Dsl

type config = {
  n_threads : int;
  body_len : int;
  n_scalars : int;
  arr_len : int;
  with_channels : bool;
  with_locks : bool;
}

let default =
  {
    n_threads = 2;
    body_len = 8;
    n_scalars = 3;
    arr_len = 4;
    with_channels = true;
    with_locks = true;
  }

let locals = [ "x"; "y"; "z" ]

(* Expressions are integer-valued and crash-free: divisions are by nonzero
   constants and all locals are pre-initialised. *)
let rec gen_expr cfg rng depth =
  let leaf () =
    match Prng.int rng 3 with
    | 0 -> i (Prng.int rng 10)
    | 1 -> v (Prng.pick rng locals)
    | _ -> g (Printf.sprintf "s%d" (Prng.int rng cfg.n_scalars))
  in
  if depth <= 0 then leaf ()
  else
    match Prng.int rng 6 with
    | 0 | 1 -> leaf ()
    | 2 -> gen_expr cfg rng (depth - 1) +: gen_expr cfg rng (depth - 1)
    | 3 -> gen_expr cfg rng (depth - 1) -: gen_expr cfg rng (depth - 1)
    | 4 -> gen_expr cfg rng (depth - 1) *: i (Prng.int rng 3)
    | _ -> gen_expr cfg rng (depth - 1) /: i (1 + Prng.int rng 4)

let gen_cond cfg rng =
  let a = gen_expr cfg rng 1 and b = gen_expr cfg rng 1 in
  match Prng.int rng 3 with
  | 0 -> a <: b
  | 1 -> a =: b
  | _ -> a >=: b

(* Array indices are normalised to [0, len) so generated programs never
   crash on bounds. *)
let safe_index cfg e = ((e %: i cfg.arr_len) +: i cfg.arr_len) %: i cfg.arr_len

let rec gen_stmt cfg rng ?(in_lock = false) depth =
  let scalar () = Printf.sprintf "s%d" (Prng.int rng cfg.n_scalars) in
  let local () = Prng.pick rng locals in
  let choice = Prng.int rng 12 in
  match choice with
  | 0 | 1 -> [ assign (local ()) (gen_expr cfg rng 2) ]
  | 2 | 3 -> [ store_g (scalar ()) (gen_expr cfg rng 2) ]
  | 4 -> [ assign (local ()) (g (scalar ()) +: gen_expr cfg rng 1) ]
  | 5 -> [ store "arr" (safe_index cfg (gen_expr cfg rng 1)) (gen_expr cfg rng 1) ]
  | 6 -> [ assign (local ()) (idx "arr" (safe_index cfg (gen_expr cfg rng 1))) ]
  | 7 -> [ input (local ()) "in0" ]
  | 8 -> [ output "out" (gen_expr cfg rng 2) ]
  | 9 when cfg.with_channels ->
    if Prng.bool rng then [ send "ch" (gen_expr cfg rng 1) ]
    else
      (* the received value lands in a dedicated variable: on an empty
         channel it is unit, which must not leak into arithmetic locals *)
      [
        try_recv "ok" "msg" "ch";
        when_ (v "ok") [ assign (local ()) (v "msg") ];
      ]
  | 10 when cfg.with_locks && depth > 0 && not in_lock ->
    (lock "m" :: gen_stmt cfg rng ~in_lock:true (depth - 1)) @ [ unlock "m" ]
  | 11 when depth > 0 ->
    [
      if_ (gen_cond cfg rng)
        (gen_stmt cfg rng ~in_lock (depth - 1))
        (gen_stmt cfg rng ~in_lock (depth - 1));
    ]
  | _ -> [ store_g (scalar ()) (g (scalar ()) +: i 1) ]

let gen_body cfg rng =
  let init = List.map (fun x -> assign x (i 0)) locals in
  let rec build n acc =
    if n <= 0 then List.rev acc
    else build (n - 1) (List.rev_append (gen_stmt cfg rng 2) acc)
  in
  init @ build cfg.body_len []

let generate cfg rng =
  let worker_name k = Printf.sprintf "worker%d" k in
  let workers =
    List.init cfg.n_threads (fun k -> func (worker_name k) [] (gen_body cfg rng))
  in
  let main_body =
    List.init cfg.n_threads (fun k -> spawn (worker_name k) [])
    @ gen_body cfg rng
  in
  let regions =
    List.init cfg.n_scalars (fun k ->
        scalar (Printf.sprintf "s%d" k) (Value.int 0))
    @ [ array "arr" (max 1 cfg.arr_len) (Value.int 0) ]
  in
  program ~name:"generated" ~regions
    ~inputs:[ ("in0", List.init 5 Value.int) ]
    ~main:"main"
    (func "main" [] main_body :: workers)

let generate_nodes cfg rng =
  let labeled = generate cfg rng in
  let n_nodes = 3 in
  let node k = Printf.sprintf "n%d" k in
  let map =
    Node.make
      ~nodes:(List.init n_nodes node)
      ~assign:
        (("main", node 0)
        :: List.init cfg.n_threads (fun k ->
               (Printf.sprintf "worker%d" k, node ((k + 1) mod n_nodes))))
  in
  (labeled, map)
