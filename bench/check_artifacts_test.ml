(* The artifact checker's own test.

   Usage: check_artifacts_test.exe <check_artifacts.exe> <BENCH_crash.json>

   Puts the committed artifact in a temporary committed directory and an
   edited copy in a temporary fresh one, runs the checker from the fresh
   one, and requires:
   - a copy whose "cores" and every row's "plain_s" differ (fields the
     artifact lists as unchecked) to pass;
   - a copy whose first row's "attempts" differs to exit 1, naming the
     artifact, table, row and field.
   Both directories are removed afterwards. *)

let absolute p = if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
let checker = absolute Sys.argv.(1)
let artifact = absolute Sys.argv.(2)
let name = Filename.basename artifact
let text = In_channel.with_open_bin artifact In_channel.input_all
let lines = String.split_on_char '\n' text

(* the index of the first [pat] in [s] *)
let find pat s =
  let n = String.length pat in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = pat then Some i
    else go (i + 1)
  in
  go 0

(* [line] with the value of its ["key": v] member replaced by [f v] *)
let set key f line =
  let pat = Printf.sprintf "%S: " key in
  match find pat line with
  | None -> line
  | Some i ->
    let j = i + String.length pat in
    let k = ref j in
    while !k < String.length line && not (String.contains ", }" line.[!k]) do
      incr k
    done;
    String.sub line 0 j ^ f (String.sub line j (!k - j))
    ^ String.sub line !k (String.length line - !k)

(* runs the checker on [edited] as the fresh copy: its exit code and
   what it wrote to stderr *)
let check edited =
  let committed = Filename.temp_dir "check_artifacts" ".committed" in
  let fresh = Filename.temp_dir "check_artifacts" ".fresh" in
  let err = Filename.concat fresh "stderr" in
  let write dir s =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc s)
  in
  write committed text;
  write fresh (String.concat "\n" edited);
  let cwd = Sys.getcwd () in
  Fun.protect
    (fun () ->
      Sys.chdir fresh;
      let code =
        Sys.command
          (Filename.quote_command checker [ committed ] ~stdout:Filename.null ~stderr:err)
      in
      (code, In_channel.with_open_bin err In_channel.input_all))
    ~finally:(fun () ->
      Sys.chdir cwd;
      List.iter
        (fun dir ->
          Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
          Sys.rmdir dir)
        [ committed; fresh ])

let fail fmt =
  Printf.ksprintf (fun s -> prerr_endline ("check_artifacts_test: " ^ s); exit 1) fmt

let () =
  (* only unchecked fields differ *)
  let edited =
    List.map
      (fun l -> set "cores" (fun _ -> "999") (set "plain_s" (fun _ -> "9.999999") l))
      lines
  in
  if List.length (List.filter Fun.id (List.map2 ( <> ) lines edited)) < 2 then
    fail "%s has no cores field or no row with plain_s to edit" name;
  (match check edited with
   | 0, _ -> ()
   | code, err -> fail "a copy differing only in unchecked fields exited %d:\n%s" code err);
  (* the first row's attempts differ *)
  let bumped = ref false in
  let bump v = string_of_int (int_of_string v + 1) in
  let edited =
    List.map
      (fun l ->
        let l' = if !bumped then l else set "attempts" bump l in
        if l' <> l then bumped := true;
        l')
      lines
  in
  if not !bumped then fail "%s has no row with attempts to edit" name;
  match check edited with
  | 1, err ->
    List.iter
      (fun part ->
        if find part err = None then
          fail "the checker's error does not name %s:\n%s" part err)
      [ name; {|table "rows", row 0 (|}; {|field "attempts"|} ]
  | code, err -> fail "a copy with a changed attempts count exited %d, not 1:\n%s" code err
