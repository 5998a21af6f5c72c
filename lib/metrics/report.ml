let table ~headers rows =
  let all = headers :: rows in
  let arity = List.length headers in
  List.iter
    (fun row ->
      if List.length row <> arity then invalid_arg "Report.table: ragged row")
    rows;
  let widths =
    List.init arity (fun i ->
        List.fold_left (fun w row -> max w (String.length (List.nth row i))) 0 all)
  in
  let render_row row =
    String.concat "  "
      (List.mapi
         (fun i cell ->
           let pad = List.nth widths i - String.length cell in
           cell ^ String.make pad ' ')
         row)
  in
  let sep =
    String.concat "  " (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (render_row headers :: sep :: List.map render_row rows)

let print_section title body =
  Printf.printf "\n=== %s ===\n%s\n" title body
