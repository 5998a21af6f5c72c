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

   Usage: check_artifacts.exe <committed-dir>

   Scans the working directory (where the smoke run just wrote its
   artifacts) for BENCH_*.json and fails if any of them has no
   counterpart in <committed-dir> or a "schema" different from its
   counterpart's, or if any BENCH_*.json in <committed-dir> says
   "tiny": true. *)

let () =
  if Array.length Sys.argv < 2 then begin
    prerr_endline "usage: check_artifacts.exe <committed-dir>";
    exit 2
  end;
  let committed_dir = Sys.argv.(1) in
  let is_bench name =
    String.length name > 6
    && String.sub name 0 6 = "BENCH_"
    && Filename.check_suffix name ".json"
  in
  let benches dir =
    Sys.readdir dir |> Array.to_list |> List.filter is_bench
    |> List.sort compare
  in
  let written = benches "." in
  let missing =
    List.filter
      (fun name -> not (Sys.file_exists (Filename.concat committed_dir name)))
      written
  in
  let read dir name =
    In_channel.with_open_bin (Filename.concat dir name) In_channel.input_all
  in
  (* the index just past the first occurrence of [needle] *)
  let find text needle =
    let n = String.length needle in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = needle then Some (i + n)
      else go (i + 1)
    in
    go 0
  in
  let tiny =
    List.filter
      (fun name -> find (read committed_dir name) "\"tiny\": true" <> None)
      (benches committed_dir)
  in
  (* the digits after "schema": — None when the artifact has no schema *)
  let schema text =
    Option.map
      (fun i ->
        let rec stop j =
          if j < String.length text && text.[j] >= '0' && text.[j] <= '9'
          then stop (j + 1)
          else j
        in
        String.sub text i (stop i - i))
      (find text "\"schema\": ")
  in
  let stale =
    List.filter_map
      (fun name ->
        if List.mem name missing then None
        else
          let fresh = schema (read "." name)
          and committed = schema (read committed_dir name) in
          if fresh = committed then None else Some (name, fresh, committed))
      written
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
  if missing <> [] || tiny <> [] || stale <> [] then exit 1;
  Printf.printf "bench artifacts ok (%d checked: %s)\n" (List.length written)
    (String.concat ", " written)
