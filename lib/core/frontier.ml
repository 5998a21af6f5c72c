open Mvm

let input_channels (r : Interp.result) =
  Trace.fold
    (fun acc (e : Event.t) ->
      match e.Event.kind with
      | Event.In io -> if List.mem io.Event.chan acc then acc else io.Event.chan :: acc
      | _ -> acc)
    [] r.Interp.trace

let inputs_values r chan =
  List.map (fun (_, _, v) -> v) (Trace.inputs_on r.Interp.trace chan)

let forensic_fidelity ~(original : Interp.result) ~(replay : Interp.result) =
  let in_chans =
    List.sort_uniq String.compare (input_channels original @ input_channels replay)
  in
  let out_chans =
    List.sort_uniq String.compare
      (List.map fst original.Interp.outputs @ List.map fst replay.Interp.outputs)
  in
  let seq_eq a b = List.length a = List.length b && List.for_all2 Value.equal a b in
  let checks =
    List.map
      (fun c -> seq_eq (inputs_values original c) (inputs_values replay c))
      in_chans
    @ List.map
        (fun c ->
          seq_eq
            (Trace.outputs_on original.Interp.trace c)
            (Trace.outputs_on replay.Interp.trace c))
        out_chans
  in
  match checks with
  | [] -> 1.0
  | _ ->
    float_of_int (List.length (List.filter Fun.id checks))
    /. float_of_int (List.length checks)

let state_divergence ~regions ~(original : Interp.result) ~(replay : Interp.result) =
  let diff = ref 0 and total = ref 0 in
  let check final_a final_b =
    incr total;
    if not (Value.equal final_a final_b) then incr diff
  in
  List.iter
    (function
      | Ast.Scalar_decl (r, init) ->
        check
          (Trace.scalar_at original.Interp.trace r ~init ~step:max_int)
          (Trace.scalar_at replay.Interp.trace r ~init ~step:max_int)
      | Ast.Array_decl (r, n, init) ->
        for index = 0 to n - 1 do
          check
            (Trace.array_cell_at original.Interp.trace r ~index ~init ~step:max_int)
            (Trace.array_cell_at replay.Interp.trace r ~index ~init ~step:max_int)
        done)
    regions;
  if !total = 0 then 0.0 else float_of_int !diff /. float_of_int !total
