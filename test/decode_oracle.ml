(* Oracles for test_serve's decode properties: Hslb.Model_store's CSV
   decoder and Hslb.Alloc_model's cache key as they were before both
   stopped allocating per field. The decoder split each line into a list
   of trimmed substrings and trimmed every number again; the key went
   through a Buffer and one string per integer. The library's versions
   must give the same classes, the same diagnostics and the same
   key bytes. *)
open Hslb

let split_fields line =
  let n = String.length line in
  let rec skip_spaces j =
    if j < n && (line.[j] = ' ' || line.[j] = '\t') then skip_spaces (j + 1) else j
  in
  let read_quoted start =
    let b = Buffer.create 16 in
    let rec go j =
      if j >= n then Error "unterminated quoted field"
      else if line.[j] = '"' then
        if j + 1 < n && line.[j + 1] = '"' then (
          Buffer.add_char b '"';
          go (j + 2))
        else Ok (Buffer.contents b, j + 1)
      else (
        Buffer.add_char b line.[j];
        go (j + 1))
    in
    go start
  in
  let read_unquoted start =
    let j = ref start in
    while !j < n && line.[!j] <> ',' do
      incr j
    done;
    (String.trim (String.sub line start (!j - start)), !j)
  in
  let rec fields acc i =
    let j = skip_spaces i in
    if j < n && line.[j] = '"' then
      match read_quoted (j + 1) with
      | Error _ as e -> e
      | Ok (f, k) ->
        let k = skip_spaces k in
        if k >= n then Ok (List.rev (f :: acc))
        else if line.[k] = ',' then fields (f :: acc) (k + 1)
        else Error "unexpected characters after closing quote"
    else
      let f, k = read_unquoted i in
      if k >= n then Ok (List.rev (f :: acc)) else fields (f :: acc) (k + 1)
  in
  fields [] 0

let parse_line ~lineno line =
  let fail what =
    Error (Printf.sprintf "Model_store.of_csv: line %d: %s: %s" lineno what line)
  in
  let number what conv s =
    match conv (String.trim s) with
    | v -> Ok v
    | exception Failure _ -> fail (Printf.sprintf "%s is not a number: %S" what s)
  in
  let ( let* ) = Result.bind in
  let* split = match split_fields line with Ok f -> Ok f | Error what -> fail what in
  match split with
  | [ name; count; a; b; c; d ] ->
    let* count =
      match int_of_string_opt count with
      | Some n -> Ok n
      | None -> fail (Printf.sprintf "count is not an integer: %S" count)
    in
    let* a = number "a" float_of_string a in
    let* b = number "b" float_of_string b in
    let* c = number "c" float_of_string c in
    let* d = number "d" float_of_string d in
    (match Scaling_law.make ~a ~b ~c ~d with
    | law ->
      let cls =
        match
          Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes)
        with
        | cls -> Ok cls
        | exception Invalid_argument m -> fail m
      in
      let* cls = cls in
      Ok
        {
          Classes.cls;
          fit =
            {
              Fitting.law;
              r2 = 1.;
              rmse = 0.;
              observations = [| (1., Scaling_law.eval_int law 1) |];
            };
        }
    | exception Invalid_argument m -> fail m)
  | fields ->
    fail (Printf.sprintf "expected 6 comma-separated fields, got %d" (List.length fields))

let of_csv_result text =
  (* line numbers are 1-based over the raw text, comments and blanks
     included, so they match what an editor shows *)
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
      let t = String.trim line in
      if t = "" || t.[0] = '#' then go (lineno + 1) acc rest
      else (
        match parse_line ~lineno line with
        | Ok fc -> go (lineno + 1) (fc :: acc) rest
        | Error _ as e -> e)
  in
  go 1 [] (String.split_on_char '\n' text)


let fingerprint ~solver ~objective ~n_total specs =
  let b = Buffer.create 256 in
  let str s = Buffer.add_string b s in
  let int sep n =
    Buffer.add_char b sep;
    str (string_of_int n)
  in
  let float f = Buffer.add_int64_le b (Int64.bits_of_float f) in
  str "alloc-v3|";
  str (Engine.Solver_choice.to_string solver);
  str "|";
  str (Objective.to_string objective);
  int '|' n_total;
  int '|' (List.length specs);
  List.iter
    (fun spec ->
      let law = spec.Alloc_model.fc.Classes.fit.Fitting.law in
      let name = spec.fc.Classes.cls.Classes.name in
      int '|' (String.length name);
      str ":";
      str name;
      int ',' spec.fc.Classes.cls.Classes.count;
      int ',' spec.Alloc_model.n_min;
      int ',' spec.Alloc_model.n_max;
      str ",";
      float law.Scaling_law.a;
      float law.Scaling_law.b;
      float law.Scaling_law.c;
      float law.Scaling_law.d;
      match spec.Alloc_model.allowed with
      | None -> str "*"
      | Some values -> List.iter (int 'a') (List.sort_uniq compare values))
    specs;
  Buffer.contents b
