(* RFC-4180-style quoting for the name field: a name containing a comma
   or double quote, carrying significant leading/trailing whitespace
   (which the unquoted parse trims away), starting with the comment
   character, or empty is wrapped in double quotes with embedded quotes
   doubled. Anything else is written bare, keeping existing files
   byte-identical. Newlines cannot survive a line-based format even
   quoted, so they are rejected rather than silently corrupted. *)
let needs_quoting name =
  name = ""
  || String.trim name <> name
  || String.exists (fun c -> c = ',' || c = '"') name
  || name.[0] = '#'

let csv_name name =
  if String.exists (fun c -> c = '\n' || c = '\r') name then
    invalid_arg
      (Printf.sprintf
         "Model_store.to_csv: class name %S contains a newline and cannot round-trip \
          through the line-based CSV format"
         name);
  if needs_quoting name then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' name) ^ "\""
  else name

let to_csv fits =
  let b = Buffer.create 256 in
  Buffer.add_string b "# name,count,a,b,c,d\n";
  List.iter
    (fun (fc : Classes.fitted) ->
      let law = fc.Classes.fit.Fitting.law in
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%.17g,%.17g,%.17g,%.17g\n"
           (csv_name fc.Classes.cls.Classes.name)
           fc.Classes.cls.Classes.count law.Scaling_law.a law.Scaling_law.b law.Scaling_law.c
           law.Scaling_law.d))
    fits;
  Buffer.contents b

(* String.trim's whitespace *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

exception Bad_line of string

(* The fields of the line [text.[lo .. hi - 1]], comma-split with
   [csv_name]'s quoting: a field opening with a double quote runs to the
   matching close quote (a doubled quote is a literal one, commas inside
   are data, surrounding whitespace is significant); unquoted fields are
   trimmed. The first six fields land in [spans] as (start, stop,
   quoted) triples, the raw text between the quotes for a quoted one;
   returns how many fields the line has, or raises [Bad_line] on a
   quote that does not close or is followed by more than spaces.
   Nothing is copied. *)
let split_fields text lo hi spans =
  let skip_spaces j =
    let j = ref j in
    while !j < hi && (text.[!j] = ' ' || text.[!j] = '\t') do
      incr j
    done;
    !j
  in
  let count = ref 0 in
  let field start stop quoted =
    if !count < 6 then begin
      spans.(3 * !count) <- start;
      spans.((3 * !count) + 1) <- stop;
      spans.((3 * !count) + 2) <- Bool.to_int quoted
    end;
    incr count
  in
  let i = ref lo and last = ref false in
  while not !last do
    let j = skip_spaces !i in
    if j < hi && text.[j] = '"' then begin
      let k = ref (j + 1) and closed = ref false in
      while not !closed do
        if !k >= hi then raise (Bad_line "unterminated quoted field")
        else if text.[!k] <> '"' then incr k
        else if !k + 1 < hi && text.[!k + 1] = '"' then k := !k + 2
        else closed := true
      done;
      field (j + 1) !k true;
      let k = skip_spaces (!k + 1) in
      if k >= hi then last := true
      else if text.[k] = ',' then i := k + 1
      else raise (Bad_line "unexpected characters after closing quote")
    end
    else begin
      let k = ref !i in
      while !k < hi && text.[!k] <> ',' do
        incr k
      done;
      let start = ref !i and stop = ref !k in
      while !start < !stop && is_space text.[!start] do
        incr start
      done;
      while !stop > !start && is_space text.[!stop - 1] do
        decr stop
      done;
      field !start !stop false;
      if !k >= hi then last := true else i := !k + 1
    end
  done;
  !count

(* field [f]'s text: an unquoted one trimmed, a quoted one with each
   doubled quote (every quote inside it is one) made single *)
let field_text text spans f =
  let start = spans.(3 * f) and stop = spans.((3 * f) + 1) in
  let raw = String.sub text start (stop - start) in
  if spans.((3 * f) + 2) = 1 && String.contains raw '"' then
    String.concat "\"" (List.filteri (fun i _ -> i mod 2 = 0) (String.split_on_char '"' raw))
  else raw

let parse_line text ~lineno lo hi spans =
  try
    let fields = split_fields text lo hi spans in
    if fields <> 6 then
      raise
        (Bad_line (Printf.sprintf "expected 6 comma-separated fields, got %d" fields));
    let name = field_text text spans 0 in
    let count =
      let s = field_text text spans 1 in
      match int_of_string_opt s with
      | Some n -> n
      | None -> raise (Bad_line (Printf.sprintf "count is not an integer: %S" s))
    in
    let number f what =
      let s = field_text text spans f in
      match float_of_string (String.trim s) with
      | v -> v
      | exception Failure _ -> raise (Bad_line (Printf.sprintf "%s is not a number: %S" what s))
    in
    let a = number 2 "a" in
    let b = number 3 "b" in
    let c = number 4 "c" in
    let d = number 5 "d" in
    let law =
      try Scaling_law.make ~a ~b ~c ~d with Invalid_argument m -> raise (Bad_line m)
    in
    let cls =
      try Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes)
      with Invalid_argument m -> raise (Bad_line m)
    in
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
  with Bad_line what ->
    Error
      (Printf.sprintf "Model_store.of_csv: line %d: %s: %s" lineno what
         (String.sub text lo (hi - lo)))

let of_csv_result text =
  (* line numbers are 1-based over the raw text, comments and blanks
     included, so they match what an editor shows *)
  let n = String.length text and spans = Array.make 18 0 in
  let rec go lineno lo acc =
    if lo > n then Ok (List.rev acc)
    else begin
      let hi = ref lo in
      while !hi < n && text.[!hi] <> '\n' do
        incr hi
      done;
      let first = ref lo in
      while !first < !hi && is_space text.[!first] do
        incr first
      done;
      if !first = !hi || text.[!first] = '#' then go (lineno + 1) (!hi + 1) acc
      else
        match parse_line text ~lineno lo !hi spans with
        | Ok fc -> go (lineno + 1) (!hi + 1) (fc :: acc)
        | Error _ as e -> e
    end
  in
  go 1 0 []

let of_csv text =
  match of_csv_result text with Ok fits -> fits | Error msg -> failwith msg

let save path fits =
  let oc = open_out path in
  (try output_string oc (to_csv fits)
   with e ->
     close_out_noerr oc;
     raise e);
  close_out oc

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  of_csv text

let specs_of_csv ?allowed text =
  List.map
    (fun fc ->
      match allowed with
      | Some values -> Alloc_model.spec_of ~allowed:values fc
      | None -> Alloc_model.spec_of fc)
    (of_csv text)
