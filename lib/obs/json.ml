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

let add_num b f =
  if Float.is_nan f || Float.is_integer f = false || Float.abs f >= 1e16 then
    if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
    else Buffer.add_string b "null"
  else Buffer.add_string b (Printf.sprintf "%.0f" f)

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

let parse s =
  let n = String.length s in
  let fail i what = raise (Parse_error (i, what)) in
  let rec skip_ws i =
    if i < n && (s.[i] = ' ' || s.[i] = '\t' || s.[i] = '\n' || s.[i] = '\r') then
      skip_ws (i + 1)
    else i
  in
  let expect i c =
    if i < n && s.[i] = c then i + 1 else fail i (Printf.sprintf "expected '%c'" c)
  in
  let literal i word v =
    let m = String.length word in
    if i + m <= n && String.sub s i m = word then (v, i + m) else fail i ("expected " ^ word)
  in
  let hex4 i =
    if i + 4 > n then fail i "truncated \\u escape";
    match int_of_string_opt ("0x" ^ String.sub s i 4) with
    | Some v -> v
    | None -> fail i "bad \\u escape"
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
  let parse_string i =
    (* i points just after the opening quote *)
    let b = Buffer.create 16 in
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
    go i
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

(* ---------- accessors ---------- *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None

let int_ = function
  | Num f when Float.is_integer f && Float.abs f <= 1e9 -> Some (int_of_float f)
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
