type t = {
  solver : string;
  status : string;
  objective : float;
  bound : float;
  wall_s : float;
  nodes_expanded : int;
  nodes_pruned : int;
  lp_solves : int;
  simplex_pivots : int;
  nlp_solves : int;
  nlp_iterations : int;
  line_search_steps : int;
  oa_cuts : int;
  incumbent_updates : int;
  warm_start_used : bool;
  cache_hit : bool;
  certificate : Certificate.t option;
  audit : string option;
  phases : (string * float) list;
  hists : (string * Obs.Metrics.Histogram.summary) list;
}

let make ~solver ~status ?(objective = nan) ?(bound = nan) ?(cache_hit = false)
    ?certificate ?audit ?(hists = []) ~wall_s (tally : Telemetry.t) =
  {
    solver;
    status;
    objective;
    bound;
    wall_s;
    cache_hit;
    certificate;
    audit;
    hists;
    nodes_expanded = tally.Telemetry.nodes_expanded;
    nodes_pruned = tally.Telemetry.nodes_pruned;
    lp_solves = tally.Telemetry.lp_solves;
    simplex_pivots = tally.Telemetry.simplex_pivots;
    nlp_solves = tally.Telemetry.nlp_solves;
    nlp_iterations = tally.Telemetry.nlp_iterations;
    line_search_steps = tally.Telemetry.line_search_steps;
    oa_cuts = tally.Telemetry.oa_cuts;
    incumbent_updates = tally.Telemetry.incumbent_updates;
    warm_start_used = tally.Telemetry.warm_start_used;
    phases = Telemetry.phases tally;
  }

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
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

let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let to_json r =
  let b = Buffer.create 512 in
  let str k v = Buffer.add_string b (Printf.sprintf "\"%s\":\"%s\"" k (json_escape v)) in
  let num k v = Buffer.add_string b (Printf.sprintf "\"%s\":%s" k (json_float v)) in
  let int k v = Buffer.add_string b (Printf.sprintf "\"%s\":%d" k v) in
  let sep () = Buffer.add_char b ',' in
  Buffer.add_char b '{';
  str "solver" r.solver;
  sep ();
  str "status" r.status;
  sep ();
  num "objective" r.objective;
  sep ();
  num "bound" r.bound;
  sep ();
  num "wall_s" r.wall_s;
  sep ();
  int "nodes_expanded" r.nodes_expanded;
  sep ();
  int "nodes_pruned" r.nodes_pruned;
  sep ();
  int "lp_solves" r.lp_solves;
  sep ();
  int "simplex_pivots" r.simplex_pivots;
  sep ();
  int "nlp_solves" r.nlp_solves;
  sep ();
  int "nlp_iterations" r.nlp_iterations;
  sep ();
  int "line_search_steps" r.line_search_steps;
  sep ();
  int "oa_cuts" r.oa_cuts;
  sep ();
  int "incumbent_updates" r.incumbent_updates;
  sep ();
  Buffer.add_string b
    (Printf.sprintf "\"warm_start_used\":%b" r.warm_start_used);
  sep ();
  Buffer.add_string b (Printf.sprintf "\"cache_hit\":%b" r.cache_hit);
  sep ();
  (match r.certificate with
  | None -> Buffer.add_string b "\"certificate\":null"
  | Some c ->
    Buffer.add_string b "\"certificate\":";
    Buffer.add_string b (Certificate.to_json c));
  sep ();
  (match r.audit with
  | None -> Buffer.add_string b "\"audit\":null"
  | Some v -> str "audit" v);
  sep ();
  Buffer.add_string b "\"phases\":{";
  List.iteri
    (fun i (label, s) ->
      if i > 0 then sep ();
      Buffer.add_string b
        (Printf.sprintf "\"%s\":%s" (json_escape label) (json_float s)))
    r.phases;
  Buffer.add_string b "}";
  (* optional: absent entirely when no histogram summaries were
     attached, so pre-observability consumers see an unchanged object *)
  if r.hists <> [] then begin
    sep ();
    Buffer.add_string b "\"hists\":{";
    List.iteri
      (fun i (name, (s : Obs.Metrics.Histogram.summary)) ->
        if i > 0 then sep ();
        Buffer.add_string b
          (Printf.sprintf
             "\"%s\":{\"count\":%d,\"sum\":%s,\"min\":%s,\"max\":%s,\
              \"p50\":%s,\"p90\":%s,\"p99\":%s}"
             (json_escape name) s.count (json_float s.sum) (json_float s.min)
             (json_float s.max) (json_float s.p50) (json_float s.p90)
             (json_float s.p99)))
      r.hists;
    Buffer.add_string b "}"
  end;
  Buffer.add_char b '}';
  Buffer.contents b

let to_json_list rs = "[" ^ String.concat "," (List.map to_json rs) ^ "]"

let csv_header =
  "solver,status,objective,bound,wall_s,nodes_expanded,nodes_pruned,lp_solves,\
   simplex_pivots,nlp_solves,nlp_iterations,line_search_steps,oa_cuts,\
   incumbent_updates,warm_start_used,cache_hit,evidence,audit"

let to_csv_row r =
  Printf.sprintf "%s,%s,%s,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%b,%b,%s,%s"
    r.solver r.status (json_float r.objective) (json_float r.bound)
    (json_float r.wall_s) r.nodes_expanded r.nodes_pruned r.lp_solves
    r.simplex_pivots r.nlp_solves r.nlp_iterations r.line_search_steps
    r.oa_cuts r.incumbent_updates r.warm_start_used r.cache_hit
    (match r.certificate with
    | None -> ""
    | Some c -> (
      (* keep CSV fields comma-free *)
      match c.Certificate.evidence with
      | Certificate.Gap_closed -> "gap-closed"
      | Certificate.Cover_exhausted _ -> "cover-exhausted"
      | Certificate.Threshold _ -> "threshold"
      | Certificate.Exact_method _ -> "exact"
      | Certificate.Incumbent_only -> "incumbent-only"
      | Certificate.No_witness -> "no-witness"))
    (match r.audit with None -> "" | Some v -> v)

let pp fmt r =
  Format.fprintf fmt
    "@[<v>%s: %s obj=%g bound=%g wall=%.3fs@,\
     nodes %d expanded / %d pruned, %d LPs (%d pivots), %d NLPs (%d iters, \
     %d line-search steps), %d cuts, %d incumbents%s@]"
    r.solver r.status r.objective r.bound r.wall_s r.nodes_expanded
    r.nodes_pruned r.lp_solves r.simplex_pivots r.nlp_solves r.nlp_iterations
    r.line_search_steps r.oa_cuts r.incumbent_updates
    (String.concat ""
       [
         (if r.warm_start_used then ", warm-started" else "");
         (if r.cache_hit then ", cache hit" else "");
       ])

let write_string path s =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc s;
      output_char oc '\n')

let write_json path r = write_string path (to_json r)
let write_json_list path rs = write_string path (to_json_list rs)
