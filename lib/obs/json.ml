type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

external format_float : string -> float -> string = "caml_format_float"

(* the bytes of Printf's "%.0f" on integers under 1e16 (exact in an
   int, so its digits; -0 keeps its sign) and of "%.17g" elsewhere,
   without Printf's format interpreter *)
let add_num b f =
  if not (Float.is_finite f) then Buffer.add_string b "null"
  else if Float.is_integer f && Float.abs f < 1e16 then
    Buffer.add_string b
      (if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f))
  else Buffer.add_string b (format_float "%.17g" f)

let to_string v =
  let b = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> add_num b f
    | Str s -> escape_string b s
    | Arr vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        vs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          go v)
        kvs;
      Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Parse_error of int * string

let rec skip_ws s i =
  if i < String.length s && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') then
    skip_ws s (i + 1)
  else i

(* whether [word] is spelled at offset [i] of [s] *)
let spelled s i word =
  let m = String.length word in
  let k = ref 0 in
  while !k < m && i + !k < String.length s && s.[i + !k] = word.[!k] do
    incr k
  done;
  !k = m

(* the code unit of the four characters at [i], as
   [int_of_string ("0x" ^ String.sub s i 4)] reads them: a hex digit,
   then hex digits or underscores; -1 when they are not that *)
let hex4_value s i =
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - 48
    | 'a' .. 'f' -> Char.code c - 87
    | 'A' .. 'F' -> Char.code c - 55
    | _ -> -1
  in
  let v = ref (digit s.[i]) in
  for k = i + 1 to i + 3 do
    if !v >= 0 && s.[k] <> '_' then
      let d = digit s.[k] in
      v := if d < 0 then -1 else (!v * 16) + d
  done;
  !v

let parse s =
  let n = String.length s in
  let fail i what = raise (Parse_error (i, what)) in
  let skip_ws i = skip_ws s i in
  let expect i c =
    if i < n && s.[i] = c then i + 1 else fail i (Printf.sprintf "expected '%c'" c)
  in
  let literal i word v =
    if spelled s i word then (v, i + String.length word) else fail i ("expected " ^ word)
  in
  let hex4 i =
    if i + 4 > n then fail i "truncated \\u escape";
    match hex4_value s i with -1 -> fail i "bad \\u escape" | v -> v
  in
  let add_utf8 b cp =
    (* UTF-8 encode one code point *)
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_escaped i j =
    (* the string opened just before i holds an escape (or a control
       character, an error) at j *)
    let b = Buffer.create 16 in
    Buffer.add_substring b s i (j - i);
    let rec go i =
      if i >= n then fail i "unterminated string"
      else
        match s.[i] with
        | '"' -> (Buffer.contents b, i + 1)
        | '\\' ->
          if i + 1 >= n then fail i "truncated escape"
          else (
            match s.[i + 1] with
            | '"' ->
              Buffer.add_char b '"';
              go (i + 2)
            | '\\' ->
              Buffer.add_char b '\\';
              go (i + 2)
            | '/' ->
              Buffer.add_char b '/';
              go (i + 2)
            | 'n' ->
              Buffer.add_char b '\n';
              go (i + 2)
            | 't' ->
              Buffer.add_char b '\t';
              go (i + 2)
            | 'r' ->
              Buffer.add_char b '\r';
              go (i + 2)
            | 'b' ->
              Buffer.add_char b '\b';
              go (i + 2)
            | 'f' ->
              Buffer.add_char b '\012';
              go (i + 2)
            | 'u' ->
              let cp = hex4 (i + 2) in
              if cp >= 0xD800 && cp <= 0xDBFF then
                (* high surrogate: require the low half *)
                if
                  i + 11 < n
                  && s.[i + 6] = '\\'
                  && s.[i + 7] = 'u'
                then begin
                  let lo = hex4 (i + 8) in
                  if lo >= 0xDC00 && lo <= 0xDFFF then begin
                    add_utf8 b (0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00));
                    go (i + 12)
                  end
                  else fail (i + 8) "invalid low surrogate"
                end
                else fail i "lone high surrogate"
              else begin
                add_utf8 b cp;
                go (i + 6)
              end
            | c -> fail i (Printf.sprintf "bad escape '\\%c'" c))
        | c when Char.code c < 0x20 -> fail i "raw control character in string"
        | c ->
          Buffer.add_char b c;
          go (i + 1)
    in
    go j
  in
  let parse_string i =
    (* i points just after the opening quote; a string without escapes
       is one copy *)
    let j = ref i in
    while !j < n && s.[!j] <> '"' && s.[!j] <> '\\' && Char.code s.[!j] >= 0x20 do
      incr j
    done;
    if !j < n && s.[!j] = '"' then (String.sub s i (!j - i), !j + 1) else parse_escaped i !j
  in
  let parse_number i =
    let j = ref i in
    let numchar c =
      (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while !j < n && numchar s.[!j] do
      incr j
    done;
    match float_of_string_opt (String.sub s i (!j - i)) with
    | Some f -> (Num f, !j)
    | None -> fail i "malformed number"
  in
  let rec parse_value i =
    let i = skip_ws i in
    if i >= n then fail i "unexpected end of input"
    else
      match s.[i] with
      | 'n' -> literal i "null" Null
      | 't' -> literal i "true" (Bool true)
      | 'f' -> literal i "false" (Bool false)
      | '"' ->
        let str, j = parse_string (i + 1) in
        (Str str, j)
      | '[' -> parse_array (skip_ws (i + 1)) []
      | '{' -> parse_object (skip_ws (i + 1)) []
      | '-' | '0' .. '9' -> parse_number i
      | c -> fail i (Printf.sprintf "unexpected character '%c'" c)
  and parse_array i acc =
    (* the early close is only the empty array: a close after a comma
       would otherwise admit trailing commas *)
    if i < n && s.[i] = ']' && acc = [] then (Arr [], i + 1)
    else
      let v, j = parse_value i in
      let j = skip_ws j in
      if j < n && s.[j] = ',' then parse_array (skip_ws (j + 1)) (v :: acc)
      else
        let j = expect j ']' in
        (Arr (List.rev (v :: acc)), j)
  and parse_object i acc =
    if i < n && s.[i] = '}' && acc = [] then (Obj [], i + 1)
    else
      let i = skip_ws i in
      let i = expect i '"' in
      let k, j = parse_string i in
      let j = expect (skip_ws j) ':' in
      let v, j = parse_value j in
      let j = skip_ws j in
      if j < n && s.[j] = ',' then parse_object (skip_ws (j + 1)) ((k, v) :: acc)
      else
        let j = expect j '}' in
        (Obj (List.rev ((k, v) :: acc)), j)
  in
  match
    let v, j = parse_value 0 in
    let j = skip_ws j in
    if j < n then fail j "trailing characters after value" else v
  with
  | v -> Ok v
  | exception Parse_error (i, what) -> Error (Printf.sprintf "at offset %d: %s" i what)

(* ---------- checking ---------- *)

(* [is_object] takes the steps [parse] takes and builds nothing: each
   scan returns the offset after what it accepted, or raises [Invalid] *)
exception Invalid

let scan_expect s i c = if i < String.length s && s.[i] = c then i + 1 else raise Invalid

let rec scan_string s i =
  let n = String.length s in
  if i >= n then raise Invalid
  else
    match s.[i] with
    | '"' -> i + 1
    | '\\' ->
      if i + 1 >= n then raise Invalid
      else (
        match s.[i + 1] with
        | '"' | '\\' | '/' | 'n' | 't' | 'r' | 'b' | 'f' -> scan_string s (i + 2)
        | 'u' ->
          let cp = scan_hex4 s (i + 2) in
          if cp >= 0xD800 && cp <= 0xDBFF then
            if
              i + 11 < n
              && s.[i + 6] = '\\'
              && s.[i + 7] = 'u'
              &&
              let lo = scan_hex4 s (i + 8) in
              lo >= 0xDC00 && lo <= 0xDFFF
            then scan_string s (i + 12)
            else raise Invalid
          else scan_string s (i + 6)
        | _ -> raise Invalid)
    | c when Char.code c < 0x20 -> raise Invalid
    | _ -> scan_string s (i + 1)

and scan_hex4 s i =
  if i + 4 > String.length s then raise Invalid;
  match hex4_value s i with -1 -> raise Invalid | v -> v

let rec skip_digits s i stop =
  if i < stop && s.[i] >= '0' && s.[i] <= '9' then skip_digits s (i + 1) stop else i

(* the run [parse_number] hands float_of_string, accepted by its rule:
   a sign, digits with at most one point (at least one digit), then an
   exponent with at least one digit *)
let scan_number s i =
  let j = ref i in
  while
    !j < String.length s
    &&
    match s.[!j] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  do
    incr j
  done;
  let stop = !j in
  let p = if s.[i] = '-' || s.[i] = '+' then i + 1 else i in
  let q = skip_digits s p stop in
  let point = q < stop && s.[q] = '.' in
  let r = if point then skip_digits s (q + 1) stop else q in
  (* no digit before the point, and none after it *)
  if q = p && ((not point) || r = q + 1) then raise Invalid;
  let e =
    if r < stop && (s.[r] = 'e' || s.[r] = 'E') then begin
      let sign = if r + 1 < stop && (s.[r + 1] = '-' || s.[r + 1] = '+') then r + 2 else r + 1 in
      let e = skip_digits s sign stop in
      if e = sign then raise Invalid;
      e
    end
    else r
  in
  if e <> stop then raise Invalid;
  stop

let rec scan_value s i =
  let i = skip_ws s i in
  if i >= String.length s then raise Invalid
  else
    match s.[i] with
    | 'n' -> scan_word s i "null"
    | 't' -> scan_word s i "true"
    | 'f' -> scan_word s i "false"
    | '"' -> scan_string s (i + 1)
    | '[' -> scan_array s (skip_ws s (i + 1)) ~first:true
    | '{' -> scan_object s (skip_ws s (i + 1)) ~first:true
    | '-' | '0' .. '9' -> scan_number s i
    | _ -> raise Invalid

and scan_word s i word = if spelled s i word then i + String.length word else raise Invalid

and scan_array s i ~first =
  if first && i < String.length s && s.[i] = ']' then i + 1
  else
    let j = skip_ws s (scan_value s i) in
    if j < String.length s && s.[j] = ',' then scan_array s (skip_ws s (j + 1)) ~first:false
    else scan_expect s j ']'

and scan_object s i ~first =
  if first && i < String.length s && s.[i] = '}' then i + 1
  else
    let i = scan_expect s (skip_ws s i) '"' in
    let j = scan_expect s (skip_ws s (scan_string s i)) ':' in
    let j = skip_ws s (scan_value s j) in
    if j < String.length s && s.[j] = ',' then scan_object s (skip_ws s (j + 1)) ~first:false
    else scan_expect s j '}'

let is_object s =
  let i = skip_ws s 0 in
  i < String.length s
  && s.[i] = '{'
  && match skip_ws s (scan_value s i) with j -> j = String.length s | exception Invalid -> false

(* ---------- accessors ---------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int_limit = 1_000_000_000

let int_ = function
  | Num f when Float.is_integer f && Float.abs f <= float_of_int int_limit ->
    Some (int_of_float f)
  | _ -> None

let bool_ = function Bool b -> Some b | _ -> None
let arr = function Arr vs -> Some vs | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "a boolean"
  | Num _ -> "a number"
  | Str _ -> "a string"
  | Arr _ -> "an array"
  | Obj _ -> "an object"

(* ---------- field decoding ---------- *)

let field what get k v =
  match Option.bind (member k v) get with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "field %S: expected %s" k what)

let int_field = field "an integer" int_

let num_field =
  field "a finite number" (function Num f when Float.is_finite f -> Some f | _ -> None)

let str_field = field "a string" str
let bool_field = field "a boolean" bool_

let obj_field k parse v =
  match member k v with
  | Some (Obj _ as o) -> Result.map_error (Printf.sprintf "%s: %s" k) (parse o)
  | Some _ | None -> Error (Printf.sprintf "field %S: expected an object" k)

let list_field k parse v =
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> (
      match parse x with
      | Ok y -> go (i + 1) (y :: acc) rest
      | Error e -> Error (Printf.sprintf "%s[%d]: %s" k i e))
  in
  Result.bind (field "an array" arr k v) (go 0 [])
