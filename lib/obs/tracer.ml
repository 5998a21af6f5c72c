type value = Count of int | Ns of int64
type kind = B | E | I

type ev = {
  mutable kind : kind;
  mutable name : string;
  mutable ts : int64;
  mutable args : (string * value) list;
}

type counter = { cname : string; cell : int Atomic.t }

type t = {
  ring : ev array;
  cap : int;
  mutable head : int;  (* next slot to write *)
  mutable len : int;
  mutable dropped : int;
  mu : Mutex.t;  (* guards [tbl]; the ring is single-writer by contract *)
  tbl : (string, counter) Hashtbl.t;
}

let create ?(capacity = 65536) () =
  if capacity < 2 then invalid_arg "Tracer.create: capacity must be >= 2";
  {
    ring = Array.init capacity (fun _ -> { kind = I; name = ""; ts = 0L; args = [] });
    cap = capacity;
    head = 0;
    len = 0;
    dropped = 0;
    mu = Mutex.create ();
    tbl = Hashtbl.create 64;
  }

(* ------------------------------------------------------------------ *)
(* ambient installation: one ref read on the disabled path *)

let cur : t option ref = ref None
let set_current t = cur := t
let current () = !cur

let with_current t f =
  let prev = !cur in
  cur := Some t;
  Fun.protect ~finally:(fun () -> cur := prev) f

(* ------------------------------------------------------------------ *)
(* events: single-writer ring, overwrite-oldest on overflow *)

let emit t kind name args =
  let slot = t.ring.(t.head) in
  slot.kind <- kind;
  slot.name <- name;
  slot.ts <- Clock.now ();
  slot.args <- args;
  t.head <- (t.head + 1) mod t.cap;
  if t.len < t.cap then t.len <- t.len + 1 else t.dropped <- t.dropped + 1

let instant t ?(args = []) name = emit t I name args

let span t ?(args = []) name f =
  emit t B name args;
  match f () with
  | v ->
    emit t E name [];
    v
  | exception e ->
    emit t E name [ ("raised", Count 1) ];
    raise e

let instant_ ?args name =
  match !cur with None -> () | Some t -> instant t ?args name

let span_ ?args name f =
  match !cur with None -> f () | Some t -> span t ?args name f

(* ------------------------------------------------------------------ *)
(* counters: find-or-create under the mutex, bump lock-free *)

let counter t name =
  Mutex.lock t.mu;
  let c =
    match Hashtbl.find_opt t.tbl name with
    | Some c -> c
    | None ->
      let c = { cname = name; cell = Atomic.make 0 } in
      Hashtbl.replace t.tbl name c;
      c
  in
  Mutex.unlock t.mu;
  c

(* a match, not [Option.map] with a closure over [name]: with no tracer
   installed a handle, and so every [count], allocates nothing *)
let handle name = match !cur with None -> None | Some t -> Some (counter t name)
let bump h n = match h with None -> () | Some c -> ignore (Atomic.fetch_and_add c.cell n)
let count name n = bump (handle name) n

(* ------------------------------------------------------------------ *)
(* inspection *)

let length t = t.len
let dropped t = t.dropped

let events t =
  let first = (t.head - t.len + t.cap * 2) mod t.cap in
  List.init t.len (fun i -> t.ring.((first + i) mod t.cap))

let counters t =
  Mutex.lock t.mu;
  let l = Hashtbl.fold (fun n c acc -> (n, Atomic.get c.cell) :: acc) t.tbl [] in
  Mutex.unlock t.mu;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

type span_stat = { sname : string; calls : int; total_ns : int64 }

let profile t =
  let acc : (string, int * int64) Hashtbl.t = Hashtbl.create 16 in
  let stack = ref [] in
  List.iter
    (fun e ->
      match e.kind with
      | B -> stack := (e.name, e.ts) :: !stack
      | E -> (
        match !stack with
        | (n, t0) :: rest when String.equal n e.name ->
          stack := rest;
          let calls, tot =
            Option.value ~default:(0, 0L) (Hashtbl.find_opt acc n)
          in
          Hashtbl.replace acc n (calls + 1, Int64.add tot (Int64.sub e.ts t0))
        | _ -> () (* ring overflow ate the matching B: skip, stay honest *))
      | I -> ())
    (events t);
  Hashtbl.fold (fun n (calls, tot) l -> { sname = n; calls; total_ns = tot } :: l) acc []
  |> List.sort (fun a b -> String.compare a.sname b.sname)

(* ------------------------------------------------------------------ *)
(* exports *)

let ns_counter name =
  let l = String.length name in
  l >= 3 && String.equal (String.sub name (l - 3) 3) "_ns"

let render_masked t =
  let b = Buffer.create 4096 in
  let pv = function Count k -> string_of_int k | Ns _ -> "*" in
  List.iter
    (fun e ->
      Buffer.add_string b
        (match e.kind with B -> "B " | E -> "E " | I -> "I ");
      Buffer.add_string b e.name;
      List.iter
        (fun (k, v) ->
          Buffer.add_char b ' ';
          Buffer.add_string b k;
          Buffer.add_char b '=';
          Buffer.add_string b (pv v))
        e.args;
      Buffer.add_char b '\n')
    (events t);
  List.iter
    (fun (n, v) ->
      Buffer.add_string b "C ";
      Buffer.add_string b n;
      Buffer.add_char b ' ';
      Buffer.add_string b (if ns_counter n then "*" else string_of_int v);
      Buffer.add_char b '\n')
    (counters t);
  Buffer.add_string b (Printf.sprintf "dropped %d\n" t.dropped);
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_json t =
  let evs = events t in
  let t0 = match evs with [] -> 0L | e :: _ -> e.ts in
  let us ts = Int64.to_float (Int64.sub ts t0) /. 1e3 in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n "
  in
  let arg_json (k, v) =
    Printf.sprintf "\"%s\":%s" (json_escape k)
      (match v with Count n -> string_of_int n | Ns n -> Int64.to_string n)
  in
  List.iter
    (fun e ->
      sep ();
      let ph = match e.kind with B -> "B" | E -> "E" | I -> "i" in
      Buffer.add_string b
        (Printf.sprintf "{\"ph\":\"%s\",\"name\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1" ph
           (json_escape e.name) (us e.ts));
      (match e.args with
      | [] -> ()
      | args ->
        Buffer.add_string b ",\"args\":{";
        Buffer.add_string b (String.concat "," (List.map arg_json args));
        Buffer.add_char b '}');
      Buffer.add_char b '}')
    evs;
  let tend = match List.rev evs with [] -> 0.0 | e :: _ -> us e.ts in
  List.iter
    (fun (n, v) ->
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"ph\":\"C\",\"name\":\"%s\",\"ts\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"value\":%d}}"
           (json_escape n) tend v))
    (counters t);
  Buffer.add_string b
    (Printf.sprintf "\n],\"otherData\":{\"dropped\":%d}}\n" t.dropped);
  Buffer.contents b
