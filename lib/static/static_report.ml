open Mvm
module P = Ddet_analysis.Plane

type node_view = {
  node : string;
  tids : int list;
  fnames : string list;
  suspects : int list;
  channels : string list;
  edges_out : Msgflow.edge list;
}

type dist = {
  map : Node.map;
  flow : Msgflow.t;
  views : node_view list;
}

type t = {
  labeled : Label.labeled;
  races : Lockset.candidate list;
  suspects : int list;
  planes : (string * P.t * int) list;
  lints : Lint.finding list;
  threshold_bytes : int;
  dist : dist option;
}

let node_views_of labeled map flow suspects =
  let prog = labeled.Label.prog in
  let table = labeled.Label.table in
  let fname_nodes = Node.fname_nodes map prog in
  let fname_of sid =
    match Label.site table sid with
    | { Label.fname; _ } -> Some fname
    | exception Not_found -> None
  in
  List.map
    (fun node ->
      let fnames =
        List.filter_map
          (fun (f, ns) -> if List.mem node ns then Some f else None)
          fname_nodes
      in
      let suspects =
        List.filter
          (fun sid ->
            match fname_of sid with
            | Some f -> List.mem f fnames
            | None -> false)
          suspects
      in
      {
        node;
        tids = Node.members map prog node;
        fnames;
        suspects;
        channels = Msgflow.node_channels flow node;
        edges_out =
          List.filter
            (fun (e : Msgflow.edge) -> e.Msgflow.from_node = node)
            (Msgflow.cross_edges flow);
      })
    (Node.nodes map)

let analyze ?(threshold_bytes = Splane.default_threshold) ?nodes labeled =
  let graph = Callgraph.build labeled in
  let prog = labeled.Label.prog in
  let base_lints = Lint.run labeled in
  let dist, ls, lints =
    match nodes with
    | None -> (None, Lockset.analyze graph, base_lints)
    | Some map ->
      let mhp = Mhp.analyze ~map graph in
      let flow = Msgflow.analyze ~map labeled in
      let ls = Lockset.analyze ~mhp graph in
      let lints = base_lints @ Commlint.run ~map labeled in
      let views = node_views_of labeled map flow (Lockset.suspect_sids ls) in
      (Some { map; flow; views }, ls, lints)
  in
  let weights = Splane.analyze ~threshold_bytes prog in
  let planes =
    List.map
      (fun (fname, w) ->
        (fname, (if w > threshold_bytes then P.Data else P.Control), w))
      (Splane.weights weights)
  in
  {
    labeled;
    races = Lockset.candidates ls;
    suspects = Lockset.suspect_sids ls;
    planes;
    lints;
    threshold_bytes;
    dist;
  }

let races t = t.races
let suspect_sids t = t.suspects
let lints t = t.lints
let has_lint_errors t = Lint.errors t.lints <> []
let msgflow t = Option.map (fun d -> d.flow) t.dist
let node_views t = match t.dist with None -> [] | Some d -> d.views

let trigger t = Ddet_analysis.Trigger.of_sites ~name:"static-races" t.suspects

let trigger_selector t = Ddet_analysis.Trigger.selector ~sticky:true [ trigger t ]

let site_selector t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun sid -> Hashtbl.replace tbl sid ()) t.suspects;
  Ddet_record.Fidelity_level.by_site ~name:"static-sites" (fun sid ->
      if Hashtbl.mem tbl sid then Ddet_record.Fidelity_level.High
      else Ddet_record.Fidelity_level.Low)

(* shard write order: nodes carrying more suspect sites first, map order
   breaking ties — under hostile stores the most diagnostic shard hits
   disk with the fewest writes in front of it *)
let shard_priority t =
  let views = node_views t in
  List.stable_sort
    (fun (a : node_view) (b : node_view) ->
      compare (List.length b.suspects) (List.length a.suspects))
    views
  |> List.map (fun v -> v.node)

let steer t ~lost =
  match t.dist with
  | None -> Ddet_replay.Oracle.no_steer
  | Some d ->
    let prog = t.labeled.Label.prog in
    let survivors =
      List.filter (fun n -> not (List.mem n lost)) (Node.nodes d.map)
    in
    let hot_chans = Msgflow.hot_channels d.flow ~lost ~survivors in
    let lost_views = List.filter (fun v -> List.mem v.node lost) d.views in
    let lost_tids = List.concat_map (fun v -> v.tids) lost_views in
    (* hot sids: a lost node's sends on channels that can still land on a
       survivor, plus its race-suspect sites — the decision points whose
       order the search should actually explore *)
    let hot_sids =
      List.concat_map
        (fun (v : node_view) ->
          v.suspects
          @ List.filter_map
              (fun (s : Msgflow.site) ->
                if
                  List.mem s.Msgflow.chan hot_chans
                  && List.exists (fun n -> List.mem n s.Msgflow.nodes) lost
                then Some s.Msgflow.sid
                else None)
              (Msgflow.sites d.flow))
        lost_views
      |> List.sort_uniq compare
    in
    (* cold: lost nodes with no static path to any survivor — nothing
       they did can show up in the surviving evidence, so their inputs
       need no search (pin to a canonical value) *)
    let cold_nodes =
      List.filter
        (fun n ->
          not
            (List.exists
               (fun s -> Msgflow.reaches d.flow n s)
               survivors))
        lost
    in
    let cold_input_tids =
      List.concat_map (fun n -> Node.members d.map prog n) cold_nodes
      |> List.sort_uniq compare
    in
    {
      Ddet_replay.Oracle.lost_tids = List.sort_uniq compare lost_tids;
      hot_sids;
      cold_input_tids;
    }

(* ------------------------------------------------------------------ *)
(* JSON dump: hand-rolled, no deps *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = Printf.sprintf "\"%s\"" (json_escape s)
let jlist f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"
let jint = string_of_int

let to_json t =
  let race (c : Lockset.candidate) =
    Printf.sprintf
      "{\"region\":%s,\"a\":{\"sid\":%d,\"fname\":%s,\"write\":%b},\"b\":{\"sid\":%d,\"fname\":%s,\"write\":%b},\"locks_a\":%s,\"locks_b\":%s}"
      (jstr c.Lockset.region) c.Lockset.a.Callgraph.sid
      (jstr c.Lockset.a.Callgraph.fname)
      c.Lockset.a.Callgraph.write c.Lockset.b.Callgraph.sid
      (jstr c.Lockset.b.Callgraph.fname)
      c.Lockset.b.Callgraph.write
      (jlist jstr c.Lockset.locks_a)
      (jlist jstr c.Lockset.locks_b)
  in
  let plane (f, p, w) =
    Printf.sprintf "{\"fname\":%s,\"plane\":%s,\"weight\":%d}" (jstr f)
      (jstr (P.to_string p))
      w
  in
  let lint (f : Lint.finding) =
    Printf.sprintf "{\"severity\":%s,\"rule\":%s,\"sid\":%s,\"fname\":%s,\"msg\":%s}"
      (jstr (match f.Lint.severity with Lint.Error -> "error" | Lint.Warning -> "warning"))
      (jstr f.Lint.rule)
      (match f.Lint.sid with Some s -> jint s | None -> "null")
      (match f.Lint.fname with Some f -> jstr f | None -> "null")
      (jstr f.Lint.msg)
  in
  let view v =
    Printf.sprintf
      "{\"node\":%s,\"tids\":%s,\"fnames\":%s,\"suspects\":%s,\"channels\":%s,\"edges_out\":%s}"
      (jstr v.node) (jlist jint v.tids) (jlist jstr v.fnames)
      (jlist jint v.suspects) (jlist jstr v.channels)
      (jlist
         (fun (e : Msgflow.edge) ->
           Printf.sprintf "{\"chan\":%s,\"from\":%s,\"to\":%s}"
             (jstr e.Msgflow.chan) (jstr e.Msgflow.from_node)
             (jstr e.Msgflow.to_node))
         v.edges_out)
  in
  Printf.sprintf
    "{\"program\":%s,\"threshold_bytes\":%d,\"races\":%s,\"suspect_sids\":%s,\"planes\":%s,\"lints\":%s,\"nodes\":%s}"
    (jstr t.labeled.Label.prog.Ast.name)
    t.threshold_bytes (jlist race t.races) (jlist jint t.suspects)
    (jlist plane t.planes) (jlist lint t.lints)
    (jlist view (node_views t))

(* ------------------------------------------------------------------ *)

let pp_site table ppf sid =
  match Label.site table sid with
  | { Label.fname; kind } -> Fmt.pf ppf "#%d (%s in %s)" sid kind fname
  | exception Not_found -> Fmt.pf ppf "#%d" sid

let pp ppf t =
  let table = t.labeled.Label.table in
  let name = t.labeled.Label.prog.Ast.name in
  Fmt.pf ppf "@[<v>== static analysis: %s ==@,@," name;
  Fmt.pf ppf "@[<v2>race candidates (%d):@," (List.length t.races);
  (match t.races with
  | [] -> Fmt.pf ppf "none"
  | rs ->
    Fmt.pf ppf "%a"
      (Fmt.list ~sep:Fmt.cut (fun ppf c -> Lockset.pp_candidate ppf c))
      rs);
  Fmt.pf ppf "@]@,@,";
  Fmt.pf ppf "@[<v2>plane map (threshold %dB):@," t.threshold_bytes;
  Fmt.pf ppf "%a"
    (Fmt.list ~sep:Fmt.cut (fun ppf (f, p, w) ->
         Fmt.pf ppf "%-14s %-7s (weight %dB)" f (P.to_string p) w))
    t.planes;
  Fmt.pf ppf "@]@,@,";
  Fmt.pf ppf "@[<v2>lint (%d error(s), %d warning(s)):@,"
    (List.length (Lint.errors t.lints))
    (List.length t.lints - List.length (Lint.errors t.lints));
  (match t.lints with
  | [] -> Fmt.pf ppf "clean"
  | fs -> Fmt.pf ppf "%a" (Fmt.list ~sep:Fmt.cut Lint.pp_finding) fs);
  Fmt.pf ppf "@]@,";
  if t.suspects <> [] then
    Fmt.pf ppf "@,suspect sites: %a@,"
      (Fmt.list ~sep:Fmt.comma (pp_site table))
      t.suspects;
  match t.dist with
  | None -> ()
  | Some d ->
    Fmt.pf ppf "@,@[<v2>nodes (%d):@," (List.length d.views);
    List.iter
      (fun v ->
        Fmt.pf ppf "@[<v2>%s (tids %s):@," v.node
          (String.concat "," (List.map string_of_int v.tids));
        Fmt.pf ppf "functions: %s@," (String.concat ", " v.fnames);
        Fmt.pf ppf "channels:  %s@,"
          (match v.channels with [] -> "none" | cs -> String.concat ", " cs);
        (match v.suspects with
        | [] -> Fmt.pf ppf "suspects:  none@,"
        | ss ->
          Fmt.pf ppf "suspects:  %a@,"
            (Fmt.list ~sep:Fmt.comma (pp_site table))
            ss);
        List.iter
          (fun (e : Msgflow.edge) ->
            Fmt.pf ppf "may-send %s -> %s@," e.Msgflow.chan e.Msgflow.to_node)
          v.edges_out;
        Fmt.pf ppf "@]@,")
      d.views;
    Fmt.pf ppf "shard priority: %s@,"
      (String.concat " > " (shard_priority t));
    Fmt.pf ppf "@]@,"
