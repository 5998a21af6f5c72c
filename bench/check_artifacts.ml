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
   failing that a full run reproduces.

   Usage: check_artifacts.exe <committed-dir>

   Scans the working directory (where the smoke run just wrote its
   artifacts) for BENCH_*.json and fails if any of them has no
   counterpart in <committed-dir>, or if any BENCH_*.json in
   <committed-dir> says "tiny": true. *)

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
  let contains text needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  let tiny =
    List.filter
      (fun name ->
        let text =
          In_channel.with_open_bin (Filename.concat committed_dir name)
            In_channel.input_all
        in
        contains text "\"tiny\": true")
      (benches committed_dir)
  in
  List.iter
    (Printf.eprintf
       "bench wrote %s but no committed copy exists at the repo root —\n\
        regenerate it (main.exe <section>) and commit the artifact\n")
    missing;
  List.iter
    (Printf.eprintf
       "committed %s comes from a --tiny run — regenerate it with a full\n\
        run (main.exe <section> --json) and commit that\n")
    tiny;
  if missing <> [] || tiny <> [] then exit 1;
  Printf.printf "bench artifacts ok (%d checked: %s)\n" (List.length written)
    (String.concat ", " written)
