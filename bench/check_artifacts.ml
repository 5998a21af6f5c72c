(* Artifact tripwire for the bench-smoke alias.

   Every bench section that produces a BENCH_*.json is expected to have
   that artifact committed at the repo root — the JSON is the evaluation
   evidence CI tracks, not a scratch file. A section that starts writing
   a new artifact without committing a reference copy silently breaks
   that contract (BENCH_dist.json went missing this way: the dist
   section wrote it on every run, but no committed copy ever existed).

   A committed artifact must also come from a full run: a --tiny run's
   numbers (shrunk budgets, one trial) are smoke output, not evidence,
   and BENCH_static.json once sat at the root reporting a replay as
   failing that a full run reproduces. And it must have the layout its
   writer produces today: a writer that bumps its "schema" while the
   committed copy keeps the old one leaves stale evidence at the root.

   The paper's figures must reproduce exactly: every cell of
   BENCH_paper.json is deterministic (modelled overhead, step-count DE,
   seeded searches with no deadline, one domain), so a field other than
   "cores" that differs from the committed copy is a changed figure.

   Usage: check_artifacts.exe <committed-dir>

   Scans the working directory (where the smoke run just wrote its
   artifacts) for BENCH_*.json and fails if any of them has no
   counterpart in <committed-dir> or a "schema" different from its
   counterpart's, if any BENCH_*.json in <committed-dir> says
   "tiny": true, or if BENCH_paper.json differs from its counterpart in
   any field but "cores"; that error names the table, row and field. *)

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

(* [cells text]: every value of an artifact, keyed by where it sits
   ("field \"schema\"", or "table \"fig2\", row 1 (app=miniht,
   model=failure), field \"df\"" — a row is named by its index and its
   leading string cells). The bench's writer prints each top-level
   member, and each row of a table, on a line of its own. *)
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
          | (k, v) :: rest when v.[0] = '"' ->
            (k ^ "=" ^ String.sub v 1 (String.length v - 2)) :: label rest
          | _ -> []
        in
        let where =
          Printf.sprintf "table %S, row %d%s" !table !row
            (match label fields with [] -> "" | l -> " (" ^ String.concat ", " l ^ ")")
        in
        incr row;
        List.map (fun (k, v) -> (Printf.sprintf "%s, field %S" where k, v)) fields
      end
      else
        let k, v = member line in
        [ (Printf.sprintf "field %S" k, v) ])
    (String.split_on_char '\n' text)

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: check_artifacts.exe <committed-dir>";
    exit 2
  end;
  let committed_dir = Sys.argv.(1) in
  let is_bench name =
    String.starts_with ~prefix:"BENCH_" name && Filename.check_suffix name ".json"
  in
  let benches dir =
    Sys.readdir dir |> Array.to_list |> List.filter is_bench
    |> List.sort compare
  in
  let read dir name =
    let path = Filename.concat dir name in
    try cells (In_channel.with_open_bin path In_channel.input_all)
    with Failure e | Invalid_argument e ->
      Printf.eprintf "%s is not an artifact the bench writes (%s)\n" path e;
      exit 1
  in
  let written = benches "." in
  let missing =
    List.filter
      (fun name -> not (Sys.file_exists (Filename.concat committed_dir name)))
      written
  in
  let tiny =
    List.filter
      (fun name ->
        List.assoc_opt {|field "tiny"|} (read committed_dir name) = Some "true")
      (benches committed_dir)
  in
  let compared = List.filter (fun name -> not (List.mem name missing)) written in
  let stale =
    List.filter_map
      (fun name ->
        let schema dir = List.assoc_opt {|field "schema"|} (read dir name) in
        let fresh = schema "." and committed = schema committed_dir in
        if fresh = committed then None else Some (name, fresh, committed))
      compared
  in
  (* every location either copy has, but "cores", whose values differ *)
  let changed =
    List.filter_map
      (fun name ->
        let committed = read committed_dir name and fresh = read "." name in
        let value cells k = Option.value ~default:"absent" (List.assoc_opt k cells) in
        match
          List.filter_map
            (fun (k, _) ->
              if k = {|field "cores"|} || value committed k = value fresh k then None
              else
                Some
                  (Printf.sprintf "%s: committed %s, fresh %s" k (value committed k)
                     (value fresh k)))
            (committed
            @ List.filter (fun (k, _) -> not (List.mem_assoc k committed)) fresh)
        with
        | [] -> None
        | lines -> Some (name, lines))
      (List.filter (( = ) "BENCH_paper.json") compared)
  in
  let show = Option.value ~default:"none" in
  List.iter
    (Printf.eprintf
       "bench wrote %s but no committed copy exists at the repo root —\n\
        regenerate it (main.exe <section> --json) and commit the artifact\n")
    missing;
  List.iter
    (Printf.eprintf
       "committed %s comes from a --tiny run — regenerate it with a full\n\
        run (main.exe <section> --json) and commit that\n")
    tiny;
  List.iter
    (fun (name, fresh, committed) ->
      Printf.eprintf
        "bench wrote %s with schema %s but the committed copy has schema %s\n\
         — regenerate it with a full run (main.exe <section> --json) and\n\
         commit that\n"
        name (show fresh) (show committed))
    stale;
  List.iter
    (fun (name, lines) ->
      Printf.eprintf "bench wrote %s, which differs from the committed copy:\n" name;
      List.iter (Printf.eprintf "  %s\n") lines;
      Printf.eprintf
        "— a figure changed; if that is intended, regenerate it with a full\n\
         run (main.exe paper --json) and commit that\n")
    changed;
  if missing <> [] || tiny <> [] || stale <> [] || changed <> [] then exit 1;
  Printf.printf "bench artifacts ok (%d checked: %s)\n" (List.length written)
    (String.concat ", " written)
