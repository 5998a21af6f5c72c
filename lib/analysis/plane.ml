type t = Control | Data

let to_string = function Control -> "control" | Data -> "data"
let equal a b = match a, b with Control, Control | Data, Data -> true | _ -> false

type map = (string * t) list

let default_threshold = 6.0

(* Strictly greater: a rate exactly at the threshold stays Control. The
   static classifier (Splane) breaks its byte-weight ties the same way,
   so a function sitting exactly on either threshold gets the
   conservative plane from both classifiers. *)
let classify profile ~threshold =
  List.map
    (fun (r : Taint_profile.row) ->
      (r.fname, if r.rate > threshold then Data else Control))
    profile

let of_assoc l = l

(* first match, as [List.assoc_opt] would, but without polymorphic
   compare; the code-based selector asks it once per site and name *)
let rec plane_of map fname =
  match map with
  | [] -> Control
  | (f, p) :: rest -> if String.equal f fname then p else plane_of rest fname

let to_assoc map = List.sort (fun (a, _) (b, _) -> String.compare a b) map

let selector map =
  Ddet_record.Fidelity_level.by_function ~name:"code-based" (fun fname ->
      match plane_of map fname with
      | Control -> Ddet_record.Fidelity_level.High
      | Data -> Ddet_record.Fidelity_level.Low)
