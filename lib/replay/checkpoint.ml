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
  seen : int list;
}

let magic = "ddet-ckpt v1"

(* append " i1 i2 ..." without the quadratic acc ^ " " ^ ... rebuild — a
   DFS frontier's seen-list carries thousands of digests, and the old
   string fold was the dominant cost of every tick *)
let add_ints b ints =
  List.iter
    (fun i ->
      Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int i))
    ints

let add_int_array b a = add_ints b (Array.to_list a)

(* The payload is everything before the [end] line; the trailer CRC covers
   its exact bytes. Closeness uses %h (hex float) so the resumed engine
   compares candidates against bit-identical scores. [b] is cleared and
   reused — a sink serialises into the same buffer for its whole life. *)
let payload_into b t =
  Buffer.clear b;
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  add "%s" magic;
  add "engine %s" t.engine;
  add "base-seed %d" t.base_seed;
  add "attempt %d" t.attempt;
  add "steps %d" t.total_steps;
  add "pruned %d" t.pruned;
  (match t.prefix with
  | None -> ()
  | Some p ->
    Buffer.add_string b "prefix";
    add_int_array b p;
    Buffer.add_char b '\n');
  (match t.best with
  | None -> ()
  | Some bst -> (
    match bst.b_prefix with
    | None -> add "best %h %d seed" bst.b_closeness bst.b_attempt
    | Some p ->
      Printf.ksprintf (Buffer.add_string b) "best %h %d prefix"
        bst.b_closeness bst.b_attempt;
      add_int_array b p;
      Buffer.add_char b '\n'));
  (match t.seen with
  | [] -> ()
  | ds ->
    Buffer.add_string b "seen";
    add_ints b ds;
    Buffer.add_char b '\n');
  Buffer.contents b

let to_payload t = payload_into (Buffer.create 256) t

let write_payload path payload =
  Log_io.atomic_write path (payload ^ "end " ^ Log_io.crc_hex payload ^ "\n")

let write path t = write_payload path (to_payload t)

(* ------------------------------------------------------------------ *)
(* parsing *)

let parse_ints tokens =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | tok :: rest -> (
      match int_of_string_opt tok with
      | Some i -> go (i :: acc) rest
      | None -> None)
  in
  go [] tokens

let load path =
  let ( let* ) = Result.bind in
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let* contents =
    try
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Ok (In_channel.input_all ic))
    with Sys_error e -> Error e
  in
  let lines =
    match String.split_on_char '\n' contents with
    | ls -> List.filter (fun l -> String.trim l <> "") ls
  in
  match List.rev lines with
  | [] -> fail "%s: empty checkpoint file" path
  | last :: rev_payload -> (
    let* () =
      match lines with
      | m :: _ when String.equal (String.trim m) magic -> Ok ()
      | _ -> fail "%s: not a ddet-ckpt v1 file" path
    in
    let* crc =
      match String.split_on_char ' ' (String.trim last) with
      | [ "end"; crc ] -> Ok crc
      | _ -> fail "%s: missing end trailer (torn checkpoint?)" path
    in
    let payload =
      String.concat "\n" (List.rev rev_payload) ^ "\n"
    in
    let* () =
      if Log_io.crc_matches crc payload 0 (String.length payload) then Ok ()
      else fail "%s: checkpoint CRC mismatch (torn or corrupted file)" path
    in
    let engine = ref None
    and base_seed = ref None
    and attempt = ref None
    and steps = ref None
    and pruned = ref None
    and prefix = ref None
    and best = ref None
    and seen = ref [] in
    let bad = ref None in
    let set_bad line = if !bad = None then bad := Some line in
    List.iter
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ "engine"; e ] -> engine := Some e
        | [ "base-seed"; n ] -> base_seed := int_of_string_opt n
        | [ "attempt"; n ] -> attempt := int_of_string_opt n
        | [ "steps"; n ] -> steps := int_of_string_opt n
        | [ "pruned"; n ] -> pruned := int_of_string_opt n
        | "prefix" :: ints -> (
          match parse_ints ints with
          | Some is -> prefix := Some (Array.of_list is)
          | None -> set_bad line)
        | "best" :: c :: a :: key -> (
          match (float_of_string_opt c, int_of_string_opt a, key) with
          | Some c, Some a, [ "seed" ] ->
            best := Some { b_closeness = c; b_attempt = a; b_prefix = None }
          | Some c, Some a, "prefix" :: ints -> (
            match parse_ints ints with
            | Some is ->
              best :=
                Some
                  {
                    b_closeness = c;
                    b_attempt = a;
                    b_prefix = Some (Array.of_list is);
                  }
            | None -> set_bad line)
          | _ -> set_bad line)
        | "seen" :: ints -> (
          match parse_ints ints with
          | Some is -> seen := is
          | None -> set_bad line)
        | _ -> set_bad line)
      (List.rev rev_payload |> List.tl);
    match !bad with
    | Some line -> fail "%s: unparsable checkpoint line %S" path line
    | None -> (
      match (!engine, !base_seed, !attempt, !steps, !pruned) with
      | Some engine, Some base_seed, Some attempt, Some total_steps, Some pruned
        ->
        Ok
          {
            engine;
            base_seed;
            attempt;
            total_steps;
            pruned;
            prefix = !prefix;
            best = !best;
            seen = !seen;
          }
      | _ -> fail "%s: checkpoint is missing required fields" path))

(* ------------------------------------------------------------------ *)
(* sink *)

type sink = {
  s_path : string;
  every : int;
  mutable since : int;
  s_buf : Buffer.t;  (* reused serialization buffer *)
  mutable s_last : string option;  (* payload of the last write *)
}

let sink ?(every = 32) path =
  if every < 1 then invalid_arg "Checkpoint.sink: every must be >= 1";
  { s_path = path; every; since = 0; s_buf = Buffer.create 1024; s_last = None }

let path s = s.s_path

(* serialise into the sink's buffer and skip the write entirely when the
   frontier payload is byte-identical to what the file already holds —
   searches that prune or spin without advancing their odometer used to
   rewrite the same checkpoint on every tick *)
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
