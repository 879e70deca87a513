(* Oracle for test_obs's JSON properties: Obs.Json.parse as it was
   before strings without escapes became one copy and literals and \u
   escapes stopped allocating, kept verbatim. The library's parse must
   return the same trees and the same errors, and [Obs.Json.is_object]
   must accept exactly the lines on which it returns an object. *)
open Obs.Json

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

