let min_version = 1
let current_version = 2

let version_range =
  Json.Obj
    [
      ("min", Json.Num (float_of_int min_version));
      ("max", Json.Num (float_of_int current_version));
    ]

type place_params = {
  torus : int * int * int;
  place_groups : int;
  mem_per_node_gb : float;
  mem_gb : float array;
  comm_mb : float array array;
  hop_cost_s_per_mb : float;
}

type solve_params = {
  model : [ `Inline of string | `Path of string ];
  n_total : int;
  objective : Hslb.Objective.t;
  solver : Engine.Solver_choice.t option;
  deadline_ms : float option;
  allowed : int list option;
  policy : Arena.Scenario.cls option;
  place : place_params option;
}

type resolve_params = {
  base : solve_params;
  prev : int array;
  observe : (string * (float * float) array) list;
  epsilon : float option;
}

type request =
  | Solve of solve_params
  | Resolve of resolve_params
  | Sleep of float
  | Ping
  | Stats
  | Drain

type parsed = {
  id : Json.t;
  v : int;
  req : (request, string) result;
  fields : (string * Json.t) list;
}

let ( let* ) = Result.bind

let objective_of_string = function
  | "min-max" -> Ok Hslb.Objective.Min_max
  | "max-min" -> Ok Hslb.Objective.Max_min
  | "min-sum" -> Ok Hslb.Objective.Min_sum
  | s -> Error (Printf.sprintf "unknown objective %S (expected min-max | max-min | min-sum)" s)

(* an absent field is fine; a present field of the wrong type is a
   protocol error, never silently ignored *)
let opt_field v key decode what =
  match Json.member key v with
  | None | Some Json.Null -> Ok None
  | Some f -> (
    match decode f with
    | Some x -> Ok (Some x)
    | None -> Error (Printf.sprintf "field %S: expected %s" key what))

let opt_str_field v key conv =
  let* s = opt_field v key Json.str "a string" in
  match s with
  | None -> Ok None
  | Some s -> (
    match conv s with
    | Ok x -> Ok (Some x)
    | Error msg -> Error (Printf.sprintf "field %S: %s" key msg))

(* the "v" field: absent means v1 (every pre-versioning client), an
   integer in [min_version, current_version] selects that dialect,
   anything else is a protocol error with an exact diagnostic *)
let parse_version v =
  match Json.member "v" v with
  | None | Some Json.Null -> Ok min_version
  | Some f -> (
    match Json.int_ f with
    | Some n when n >= min_version && n <= current_version -> Ok n
    | Some n ->
      Error
        (Printf.sprintf "field \"v\": unsupported protocol version %d (server speaks %d..%d)" n
           min_version current_version)
    | None -> Error "field \"v\": expected an integer")

(* The largest placement a request may ask for: a torus of the paper's
   largest run, 262,144 nodes, carved into at most 1,024 groups. At both
   caps the instance behind the cache key takes ~0.1 s and ~10 MB to
   build on one core. The comm-aware search that follows measures every
   node pair across groups (Place.Model's hop matrix), so its time grows
   with the square of the torus. *)
let max_torus_nodes = 262_144
let max_place_groups = 1_024

(* the optional v2 "place" section: a torus, an even group carve, and
   the class-level memory/communication data the placement model needs.
   Shape errors are protocol errors with exact field paths; the deeper
   semantic checks (symmetry, zero diagonal, memory feasibility) belong
   to Place.Model and are surfaced by [place_instance]. *)
let parse_place ~v:version v =
  match Json.member "place" v with
  | None | Some Json.Null -> Ok None
  | Some _ when version < 2 -> Error "field \"place\" requires protocol v2 (send \"v\": 2)"
  | Some (Json.Obj _ as pv) ->
    let bad_topology = "field \"place.topology\": expected an array of 3 positive integers" in
    let* torus =
      match Json.member "topology" pv with
      | None | Some Json.Null -> Error "missing field \"place.topology\" (the [x, y, z] torus)"
      | Some f -> (
        match Json.arr f with
        | Some [ a; b; c ] -> (
          match (Json.int_ a, Json.int_ b, Json.int_ c) with
          | Some x, Some y, Some z when x >= 1 && y >= 1 && z >= 1 ->
            (* x·y·z <= cap, checked without forming the product *)
            if
              x <= max_torus_nodes
              && y <= max_torus_nodes / x
              && z <= max_torus_nodes / (x * y)
            then Ok (x, y, z)
            else
              Error
                (Printf.sprintf
                   "field \"place.topology\": must have at most %d nodes, got %dx%dx%d"
                   max_torus_nodes x y z)
          | _ -> Error bad_topology)
        | Some _ | None -> Error bad_topology)
    in
    let* place_groups =
      match Json.member "groups" pv with
      | None | Some Json.Null -> Error "missing field \"place.groups\" (how many node groups)"
      | Some f -> (
        match Json.int_ f with
        | Some g when g > max_place_groups ->
          Error
            (Printf.sprintf "field \"place.groups\": must be <= %d, got %d" max_place_groups g)
        | Some g when g >= 1 -> Ok g
        | Some _ | None -> Error "field \"place.groups\": expected a positive integer")
    in
    let* mem_per_node_gb =
      match Json.member "mem_per_node_gb" pv with
      | None | Some Json.Null -> Error "missing field \"place.mem_per_node_gb\""
      | Some f -> (
        match Json.num f with
        | Some m when m > 0. -> Ok m
        | Some _ | None -> Error "field \"place.mem_per_node_gb\": expected a positive number")
    in
    let* mem_gb =
      let bad = "field \"place.mem_gb\": expected an array of non-negative numbers" in
      match Json.member "mem_gb" pv with
      | None | Some Json.Null -> Error "missing field \"place.mem_gb\" (one entry per class)"
      | Some f -> (
        match Json.arr f with
        | None -> Error bad
        | Some vs ->
          let nums = List.filter_map Json.num vs in
          if List.length nums <> List.length vs || List.exists (fun m -> m < 0.) nums then
            Error bad
          else Ok (Array.of_list nums))
    in
    let* comm_mb =
      let bad = "field \"place.comm_mb\": expected a square matrix of numbers" in
      match Json.member "comm_mb" pv with
      | None | Some Json.Null ->
        Error "missing field \"place.comm_mb\" (the class-pair communication matrix)"
      | Some f -> (
        match Json.arr f with
        | None -> Error bad
        | Some rows ->
          let parsed =
            List.filter_map
              (fun r ->
                match Json.arr r with
                | None -> None
                | Some cells ->
                  let nums = List.filter_map Json.num cells in
                  if List.length nums = List.length cells then Some (Array.of_list nums)
                  else None)
              rows
          in
          if List.length parsed <> List.length rows then Error bad
          else Ok (Array.of_list parsed))
    in
    let* hop_cost_s_per_mb =
      let* h = opt_field pv "hop_cost_s_per_mb" Json.num "a number" in
      match h with
      | Some h when h < 0. || not (Float.is_finite h) ->
        Error "field \"place.hop_cost_s_per_mb\": must be finite and non-negative"
      | Some h -> Ok h
      | None -> Ok 1.0
    in
    Ok (Some { torus; place_groups; mem_per_node_gb; mem_gb; comm_mb; hop_cost_s_per_mb })
  | Some f ->
    Error (Printf.sprintf "field \"place\": expected an object, got %s" (Json.type_name f))

let parse_solve_params ~v:version v =
  let* model =
    match (Json.member "model_csv" v, Json.member "model_path" v) with
    | Some (Json.Str csv), None -> Ok (`Inline csv)
    | None, Some (Json.Str path) -> Ok (`Path path)
    | Some _, Some _ -> Error "give model_csv or model_path, not both"
    | Some _, None -> Error "field \"model_csv\": expected a string"
    | None, Some _ -> Error "field \"model_path\": expected a string"
    | None, None -> Error "missing model: give model_csv (inline) or model_path (file)"
  in
  let* n_total =
    match Json.member "nodes" v with
    | None -> Error "missing field \"nodes\" (total node budget)"
    | Some f -> (
      match (Json.int_ f, Json.num f) with
      | Some n, _ when n >= 1 -> Ok n
      | Some n, _ -> Error (Printf.sprintf "field \"nodes\": must be >= 1, got %d" n)
      | None, Some x when Float.is_integer x && x > 0. ->
        Error (Printf.sprintf "field \"nodes\": must be <= %d, got %.0f" Json.int_limit x)
      | None, _ -> Error "field \"nodes\": expected a positive integer")
  in
  let* objective = opt_str_field v "objective" objective_of_string in
  let objective = Option.value objective ~default:Hslb.Objective.Min_max in
  let* solver = opt_str_field v "solver" Engine.Solver_choice.of_string in
  let* deadline_ms =
    let* d = opt_field v "deadline_ms" Json.num "a number" in
    match d with
    | Some d when d <= 0. -> Error "field \"deadline_ms\": must be > 0"
    | (Some _ | None) as d -> Ok d
  in
  let* allowed =
    match Json.member "allowed" v with
    | None | Some Json.Null -> Ok None
    | Some f -> (
      match Json.arr f with
      | None -> Error "field \"allowed\": expected an array of integers"
      | Some vs -> (
        let ints = List.filter_map Json.int_ vs in
        if List.length ints = List.length vs then Ok (Some ints)
        else Error "field \"allowed\": expected an array of integers"))
  in
  let* policy = opt_str_field v "policy" Arena.Scenario.class_of_string in
  let* place = parse_place ~v:version v in
  Ok { model; n_total; objective; solver; deadline_ms; allowed; policy; place }

let parse_solve ~v obj =
  let* p = parse_solve_params ~v obj in
  Ok (Solve p)

let parse_prev v =
  match Json.member "prev" v with
  | None | Some Json.Null -> Error "op resolve: missing field \"prev\" (previous allocation)"
  | Some f -> (
    match Json.arr f with
    | None -> Error "field \"prev\": expected an array of positive integers"
    | Some vs -> (
      let ints = List.filter_map Json.int_ vs in
      if List.length ints <> List.length vs || List.exists (fun n -> n < 1) ints then
        Error "field \"prev\": expected an array of positive integers"
      else
        match ints with
        | [] -> Error "field \"prev\": must not be empty"
        | _ -> Ok (Array.of_list ints)))

let parse_sample = function
  | Json.Arr [ n; t ] -> (
    match (Json.num n, Json.num t) with
    | Some n, Some t when n >= 1. && t >= 0. && Float.is_finite n && Float.is_finite t ->
      Some (n, t)
    | _ -> None)
  | _ -> None

let parse_observe v =
  let bad = "field \"observe\": expected an array of {class, samples} objects" in
  match Json.member "observe" v with
  | None | Some Json.Null -> Ok []
  | Some f -> (
    match Json.arr f with
    | None -> Error bad
    | Some entries ->
      let rec walk acc = function
        | [] -> Ok (List.rev acc)
        | e :: tl -> (
          match (Json.member "class" e, Json.member "samples" e) with
          | Some (Json.Str name), Some samples -> (
            match Json.arr samples with
            | None ->
              Error
                (Printf.sprintf
                   "field \"observe\": class %S: samples must be an array of [nodes, seconds] \
                    pairs of finite numbers (nodes >= 1, seconds >= 0)"
                   name)
            | Some pairs ->
              let parsed = List.filter_map parse_sample pairs in
              if List.length parsed <> List.length pairs then
                Error
                  (Printf.sprintf
                     "field \"observe\": class %S: samples must be an array of [nodes, \
                      seconds] pairs of finite numbers (nodes >= 1, seconds >= 0)"
                     name)
              else walk ((name, Array.of_list parsed) :: acc) tl)
          | _ -> Error bad)
      in
      walk [] entries)

let parse_resolve ~v:version v =
  let* base = parse_solve_params ~v:version v in
  let* prev = parse_prev v in
  let* observe = parse_observe v in
  let* epsilon =
    let* e = opt_field v "epsilon" Json.num "a number" in
    match e with
    | Some e when e <= 0. -> Error "field \"epsilon\": must be > 0"
    | (Some _ | None) as e -> Ok e
  in
  Ok (Resolve { base; prev; observe; epsilon })

let parse_request ~v:version v =
  let* op =
    match Json.member "op" v with
    | None -> Ok "solve"
    | Some f -> (
      match Json.str f with
      | Some s -> Ok s
      | None ->
        (* a non-string op (e.g. a numeric 7) must be a type error, not
           fall through to the unknown-op branch via some coercion *)
        Error (Printf.sprintf "field \"op\": expected a string, got %s" (Json.type_name f)))
  in
  match op with
  | "solve" -> parse_solve ~v:version v
  | "resolve" ->
    if version < 2 then Error "op \"resolve\" requires protocol v2 (send \"v\": 2)"
    else parse_resolve ~v:version v
  | "sleep" -> (
    match Json.member "ms" v with
    | Some f -> (
      match Json.num f with
      | Some ms when ms >= 0. -> Ok (Sleep (ms /. 1000.))
      | Some _ | None -> Error "field \"ms\": expected a non-negative number")
    | None -> Error "op sleep: missing field \"ms\"")
  | "ping" -> Ok Ping
  | "stats" -> Ok Stats
  | "drain" -> Ok Drain
  | op ->
    Error
      (Printf.sprintf "unknown op %S (expected solve | resolve | sleep | ping | stats | drain)"
         op)

let parse_line line =
  match Json.parse line with
  | Error msg ->
    { id = Json.Null; v = min_version; req = Error ("bad JSON: " ^ msg); fields = [] }
  | Ok (Json.Obj fields as obj) -> (
    let id = Option.value (Json.member "id" obj) ~default:Json.Null in
    match parse_version obj with
    | Error msg -> { id; v = min_version; req = Error msg; fields }
    | Ok v -> { id; v; req = parse_request ~v obj; fields })
  | Ok _ ->
    {
      id = Json.Null;
      v = min_version;
      req = Error "request must be a JSON object";
      fields = [];
    }

(* shared by the server (to solve) and the router (to shard): turn a
   solve request's model reference into concrete specs. Kept here, next
   to the wire format, so both sides resolve — and report errors on —
   the model identically. *)
let resolve_specs (p : solve_params) =
  let* text =
    match p.model with
    | `Inline csv -> Ok csv
    | `Path path -> (
      match
        let ic = open_in path in
        let n = in_channel_length ic in
        let text = really_input_string ic n in
        close_in ic;
        text
      with
      | text -> Ok text
      | exception Sys_error msg -> Error ("model_path: " ^ msg))
  in
  let* fits = Hslb.Model_store.of_csv_result text in
  if fits = [] then Error "model has no classes"
  else
    Ok
      (List.map
         (fun fc ->
           match p.allowed with
           | Some values -> Hslb.Alloc_model.spec_of ~allowed:values fc
           | None -> Hslb.Alloc_model.spec_of fc)
         fits)

(* lower a solve's place section into a Place.Model instance for its
   classes: the torus carved into even compact groups, one placement
   task per class. [duration_s] defaults to all-zero — the
   request-level shape used for fingerprints; the server substitutes
   the solved predicted times before optimizing. Semantic rejections
   (ragged matrices, asymmetry, memory infeasibility) surface here
   with Place.Model's exact messages. *)
let place_instance ?duration_s ~names (pl : place_params) =
  let x, y, z = pl.torus in
  let k = Array.length names in
  let nodes = x * y * z in
  if nodes mod pl.place_groups <> 0 then
    Error
      (Printf.sprintf "field \"place.groups\": %d groups do not divide the %dx%dx%d torus evenly"
         pl.place_groups x y z)
  else if Array.length pl.mem_gb <> k then
    Error
      (Printf.sprintf "field \"place.mem_gb\": expected %d entries (one per model class), got %d"
         k (Array.length pl.mem_gb))
  else if Array.length pl.comm_mb <> k then
    Error
      (Printf.sprintf
         "field \"place.comm_mb\": expected a %dx%d matrix (one row per model class), got %d rows"
         k k (Array.length pl.comm_mb))
  else
    let duration_s =
      match duration_s with Some d -> d | None -> Array.make_matrix k pl.place_groups 0.
    in
    match
      let topology = Topology.make ~x ~y ~z in
      let groups =
        Topology.place topology ~placement:Topology.Compact
          ~sizes:(List.init pl.place_groups (fun _ -> nodes / pl.place_groups))
      in
      Place.Model.make ~topology ~groups:(Array.of_list groups) ~names ~duration_s
        ~mem_gb:pl.mem_gb ~mem_per_node_gb:pl.mem_per_node_gb ~comm_mb:pl.comm_mb
        ~hop_cost_s_per_mb:pl.hop_cost_s_per_mb ()
    with
    | inst -> Ok inst
    | exception Invalid_argument msg -> Error msg

let spec_names specs =
  Array.of_list
    (List.map
       (fun (s : Hslb.Alloc_model.spec) -> s.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.name)
       specs)

(* the dedupe/cache key for a solve whose specs are already resolved:
   the allocation fingerprint under the request's solver (the serve
   default, exact, when it names none), wrapped by the placement fingerprint
   when a place section rides along — two requests naming different
   solvers, or differing only in topology (or memory, or traffic), must
   never share a cached allocation *)
let solve_key (p : solve_params) specs =
  let base =
    Hslb.Alloc_model.fingerprint
      ~solver:(Option.value p.solver ~default:Hslb.Alloc_model.default_solver)
      ~objective:p.objective ~n_total:p.n_total specs
  in
  match p.place with
  | None -> Ok base
  | Some pl ->
    let* inst = place_instance ~names:(spec_names specs) pl in
    Ok (Place.Model.fingerprint ~base inst)

let fingerprint p =
  let* specs = resolve_specs p in
  solve_key p specs

(* v1 responses must stay byte-identical to the pre-versioning wire, so
   the "v" echo appears only in v2+ dialects *)
let response ?(v = min_version) ~id fields =
  let fields = if v >= 2 then ("v", Json.Num (float_of_int v)) :: fields else fields in
  Json.to_string (Json.Obj (("id", id) :: fields))

let error_response ?v ~id ~outcome msg =
  response ?v ~id [ ("outcome", Json.Str outcome); ("error", Json.Str msg) ]
