open Ddet_record

type best = {
  b_closeness : float;
  b_attempt : int;
  b_prefix : int array option;
}

type t = {
  engine : string;
  base_seed : int;
  attempt : int;
  total_steps : int;
  pruned : int;
  prefix : int array option;
  best : best option;
}

let magic = "ddet-ckpt v2"

(* A framed-line file: one key per CRC'd line, closed by a framed
   [end N] line counting the lines before it, so a file cut at a line
   boundary is refused like a torn line. Closeness uses %h (hex float)
   so the resumed engine compares candidates against bit-identical
   scores. [o] is cleared and reused — a sink serialises into the same
   buffer for its whole life. *)
let payload_into o t =
  Log_io.out_clear o;
  Log_io.add_string o magic;
  Log_io.add_char o '\n';
  let lines = ref 0 in
  (* [head], then " i" per int straight into the buffer *)
  let line head ints =
    incr lines;
    Log_io.framed o
      (fun o () ->
        Log_io.add_string o head;
        List.iter
          (fun i ->
            Log_io.add_char o ' ';
            Log_io.add_int o i)
          ints)
      ()
  in
  line ("engine " ^ t.engine) [];
  line "base-seed" [ t.base_seed ];
  line "attempt" [ t.attempt ];
  line "steps" [ t.total_steps ];
  line "pruned" [ t.pruned ];
  Option.iter (fun p -> line "prefix" (Array.to_list p)) t.prefix;
  Option.iter
    (fun b ->
      let head = Printf.sprintf "best %h %d" b.b_closeness b.b_attempt in
      match b.b_prefix with
      | None -> line (head ^ " seed") []
      | Some p -> line (head ^ " prefix") (Array.to_list p))
    t.best;
  let n = !lines in
  line "end" [ n ];
  Log_io.out_contents o

let write_payload path payload =
  match Store.atomic_write (Store.local ()) path payload with
  | Ok () -> ()
  | Error e -> raise (Sys_error (Store.error_to_string e))

let write path t = write_payload path (payload_into (Log_io.out_create 256) t)

(* ------------------------------------------------------------------ *)
(* parsing: a key outside [keys] is an unrecognised line, which refuses
   the file. That includes [seen], the digest set the state-hash-pruned
   DFS used to write: an unpruned search cannot finish that search the
   way it would have gone. *)

let keys =
  [ "engine"; "base-seed"; "attempt"; "steps"; "pruned"; "prefix"; "best" ]

let ints l = try Some (List.map int_of_string l) with Failure _ -> None

let load path =
  (* each known key's values, once; nothing may follow the [end] line *)
  let fields = Hashtbl.create 8 and count = ref 0 and trailer = ref None in
  let line body =
    !trailer = None
    &&
    match String.split_on_char ' ' body with
    | [ "end"; n ] ->
      trailer := int_of_string_opt n;
      true
    | key :: values when List.mem key keys && not (Hashtbl.mem fields key) ->
      incr count;
      Hashtbl.replace fields key values;
      true
    | _ -> false
  in
  let where e = path ^ ": " ^ e in
  let fail e = Error (where e) in
  match
    Result.bind (Log_io.read_file path) (fun s ->
        Result.map_error where (Log_io.read_framed ~magic Log_io.Strict s line))
  with
  | Error e -> Error e
  | Ok _ when !trailer <> Some !count ->
    fail "missing end trailer (torn checkpoint?)"
  | Ok _ ->
    let ( let* ) o f =
      match o with Some x -> f x | None -> fail "missing or unparsable field"
    in
    let field key = Hashtbl.find_opt fields key in
    let int key =
      match Option.bind (field key) ints with Some [ n ] -> Some n | _ -> None
    in
    let optional key f =
      match field key with
      | None -> Some None
      | Some v -> Option.map Option.some (f v)
    in
    let* engine = match field "engine" with Some [ e ] -> Some e | _ -> None in
    let* base_seed = int "base-seed" in
    let* attempt = int "attempt" in
    let* total_steps = int "steps" in
    let* pruned = int "pruned" in
    let* prefix =
      optional "prefix" (fun l -> Option.map Array.of_list (ints l))
    in
    let* best =
      optional "best" (function
        | c :: a :: key -> (
          match (float_of_string_opt c, int_of_string_opt a, key) with
          | Some b_closeness, Some b_attempt, [ "seed" ] ->
            Some { b_closeness; b_attempt; b_prefix = None }
          | Some b_closeness, Some b_attempt, "prefix" :: l ->
            Option.map
              (fun p ->
                { b_closeness; b_attempt; b_prefix = Some (Array.of_list p) })
              (ints l)
          | _ -> None)
        | _ -> None)
    in
    Ok { engine; base_seed; attempt; total_steps; pruned; prefix; best }

(* ------------------------------------------------------------------ *)
(* sink *)

type sink = {
  s_path : string;
  every : int;
  mutable since : int;
  s_buf : Log_io.out;  (* reused serialization buffer *)
  mutable s_last : string option;  (* payload of the last write *)
}

let sink ?(every = 32) path =
  if every < 1 then invalid_arg "Checkpoint.sink: every must be >= 1";
  {
    s_path = path;
    every;
    since = 0;
    s_buf = Log_io.out_create 1024;
    s_last = None;
  }

let path s = s.s_path

(* serialise into the sink's buffer and skip the write entirely when the
   frontier payload is byte-identical to what the file already holds —
   searches that spin without advancing their frontier used to rewrite
   the same checkpoint on every tick *)
let persist s frontier =
  let payload = payload_into s.s_buf (frontier ()) in
  match s.s_last with
  | Some prev when String.equal prev payload -> ()
  | _ ->
    write_payload s.s_path payload;
    s.s_last <- Some payload

let tick s frontier =
  s.since <- s.since + 1;
  if s.since >= s.every then begin
    s.since <- 0;
    persist s frontier
  end

let flush s frontier =
  s.since <- 0;
  persist s frontier
