open Mvm

type t = {
  name : string;
  descr : string;
  labeled : Label.labeled;
  spec : Spec.t;
  catalog : Ddet_metrics.Root_cause.catalog;
  control_plane : string list;
  nodes : Node.map option;
}

(* Node-granular faults are sugar over thread/channel primitives; they
   desugar against the app's deployment map before any world is built.
   An app with no map cannot interpret them, and saying so beats a
   confusing Fault.inject failure deeper down. *)
let lower_faults app plan =
  if not (Fault.has_node_faults plan) then plan
  else
    match app.nodes with
    | Some map -> Fault.lower ~map ~prog:app.labeled.Label.prog plan
    | None ->
      invalid_arg
        (Printf.sprintf
           "app %S has no node map; node-granular faults (%s) need one"
           app.name (Fault.to_string plan))

let production_run ?(faults = Fault.none) app ~seed =
  Spec.apply app.spec
    (Interp.run app.labeled
       (Fault.inject (lower_faults app faults) (World.random ~seed)))
