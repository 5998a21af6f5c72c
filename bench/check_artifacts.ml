(* Artifact tripwire for the bench-smoke alias.

   Every bench section that produces a BENCH_*.json is expected to have
   that artifact committed at the repo root — the JSON is the evaluation
   evidence CI tracks, not a scratch file. A section that starts writing
   a new artifact without committing a reference copy silently breaks
   that contract (BENCH_dist.json went missing this way: the dist
   section wrote it on every run, but no committed copy ever existed).

   And every fresh artifact must equal its committed copy, field by
   field, except the fields the committed copy names in its "unchecked"
   member: the machine-dependent ones (wall-clock times, the rates and
   ratios computed from them, the core count). Everything else — DF,
   attempt counts, entry and byte counts, parity flags — comes from
   seeded runs with step-count budgets and no deadline, so a difference
   is a changed outcome. "schema" and "unchecked" are fields like any
   other: changing the layout or the set of machine-dependent fields
   forces a regeneration that shows in the diff.

   Usage: check_artifacts.exe <committed-dir>

   Scans the working directory (where the smoke run just wrote its
   artifacts) for BENCH_*.json and fails if any of them has no
   counterpart in <committed-dir>, or differs from its counterpart in a
   field the counterpart does not list as unchecked; that error names
   the artifact, table, row and field. *)

(* [split s]: [s] cut at the commas outside strings, brackets and
   braces *)
let split s =
  let parts = ref [] and start = ref 0 and depth = ref 0 in
  let quoted = ref false and escaped = ref false in
  String.iteri
    (fun i c ->
      if !escaped then escaped := false
      else if !quoted then
        (if c = '\\' then escaped := true else if c = '"' then quoted := false)
      else
        match c with
        | '"' -> quoted := true
        | '[' | '{' -> incr depth
        | ']' | '}' -> decr depth
        | ',' when !depth = 0 ->
          parts := String.trim (String.sub s !start (i - !start)) :: !parts;
          start := i + 1
        | _ -> ())
    s;
  List.rev (String.trim (String.sub s !start (String.length s - !start)) :: !parts)

(* ["key": value] as (key, value), the value as printed *)
let member m =
  match String.index_opt m ':' with
  | Some i when m <> "" && m.[0] = '"' ->
    (String.sub m 1 (i - 2), String.trim (String.sub m (i + 1) (String.length m - i - 1)))
  | _ -> failwith ("not a member: " ^ m)

(* [unquote v]: the string a printed JSON string [v] holds *)
let unquote v =
  if String.length v < 2 || v.[0] <> '"' then failwith ("not a string: " ^ v);
  String.sub v 1 (String.length v - 2)

(* [cells text]: every value of an artifact as (where, (key, value)).
   [where] names the cell ("field \"schema\"", or "table \"fig2\", row 1
   (app=miniht, model=failure), field \"df\"" — a row is named by its
   index and its leading string cells); the key is what an "unchecked"
   member lists ("cores", or "rows.wall_s" for field wall_s of table
   rows). The bench's writer prints each top-level member, and each row
   of a table, on a line of its own. *)
let cells text =
  let table = ref "" and row = ref 0 in
  List.concat_map
    (fun line ->
      let line = String.trim line in
      let line =
        if String.ends_with ~suffix:"," line then
          String.sub line 0 (String.length line - 1)
        else line
      in
      if line = "{" || line = "}" || line = "]" || line = "" then []
      else if String.ends_with ~suffix:"[" line then begin
        table := fst (member (line ^ "]"));
        row := 0;
        []
      end
      else if line.[0] = '{' then begin
        let fields =
          List.map member (split (String.sub line 1 (String.length line - 2)))
        in
        let rec label = function
          | (k, v) :: rest when v.[0] = '"' -> (k ^ "=" ^ unquote v) :: label rest
          | _ -> []
        in
        let where =
          Printf.sprintf "table %S, row %d%s" !table !row
            (match label fields with [] -> "" | l -> " (" ^ String.concat ", " l ^ ")")
        in
        incr row;
        List.map
          (fun (k, v) -> (Printf.sprintf "%s, field %S" where k, (!table ^ "." ^ k, v)))
          fields
      end
      else
        let k, v = member line in
        [ (Printf.sprintf "field %S" k, (k, v)) ])
    (String.split_on_char '\n' text)

(* the keys a committed artifact's "unchecked" member lists *)
let unchecked cells =
  match List.assoc_opt {|field "unchecked"|} cells with
  | None | Some (_, "[]") -> []
  | Some (_, v) -> List.map unquote (split (String.sub v 1 (String.length v - 2)))

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: check_artifacts.exe <committed-dir>";
    exit 2
  end;
  let committed_dir = Sys.argv.(1) in
  let is_bench name =
    String.starts_with ~prefix:"BENCH_" name && Filename.check_suffix name ".json"
  in
  let written =
    Sys.readdir "." |> Array.to_list |> List.filter is_bench |> List.sort compare
  in
  let read dir name =
    let path = Filename.concat dir name in
    try
      let cells = cells (In_channel.with_open_bin path In_channel.input_all) in
      (cells, unchecked cells)
    with Failure e | Invalid_argument e ->
      Printf.eprintf "%s is not an artifact the bench writes (%s)\n" path e;
      exit 1
  in
  let missing, compared =
    List.partition
      (fun name -> not (Sys.file_exists (Filename.concat committed_dir name)))
      written
  in
  (* every cell either copy has whose key the committed copy does not list
     as unchecked, and whose values differ *)
  let changed =
    List.filter_map
      (fun name ->
        let committed, skip = read committed_dir name in
        let fresh, _ = read "." name in
        let value cells w =
          Option.fold ~none:"absent" ~some:snd (List.assoc_opt w cells)
        in
        match
          List.filter_map
            (fun (w, (k, _)) ->
              let was = value committed w and now = value fresh w in
              if List.mem k skip || was = now then None
              else Some (Printf.sprintf "%s: committed %s, fresh %s" w was now))
            (committed
            @ List.filter (fun (w, _) -> not (List.mem_assoc w committed)) fresh)
        with
        | [] -> None
        | lines -> Some (name, lines))
      compared
  in
  List.iter
    (Printf.eprintf
       "bench wrote %s but no committed copy exists at the repo root —\n\
        regenerate it (main.exe <section> --json) and commit the artifact\n")
    missing;
  List.iter
    (fun (name, lines) ->
      Printf.eprintf "bench wrote %s, which differs from the committed copy:\n" name;
      List.iter (Printf.eprintf "  %s\n") lines;
      Printf.eprintf
        "— an outcome changed; if that is intended, regenerate the artifact\n\
         at the repo root (main.exe <section> --json) and commit it\n")
    changed;
  if missing <> [] || changed <> [] then exit 1;
  Printf.printf "bench artifacts ok (%d checked: %s)\n" (List.length written)
    (String.concat ", " written)
