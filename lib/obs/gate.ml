type op = Lt | Le | Eq | Ge | Gt
type 'a t = { name : string; value : 'a -> float; op : op; bound : float }
let gate name op bound value = { name; value; op; bound }

type verdict = { gate : string; value : float; op : op; bound : float; ok : bool }
type checker = { schema : string; run : Json.t -> (verdict list, string) result }

let holds op v b =
  match op with Lt -> v < b | Le -> v <= b | Eq -> v = b | Ge -> v >= b | Gt -> v > b

let eval x (g : _ t) =
  let value = g.value x in
  {
    gate = g.name;
    value;
    op = g.op;
    bound = g.bound;
    ok = Float.is_finite value && holds g.op value g.bound;
  }

let checker ~schema ~decode gates =
  { schema; run = (fun j -> Result.map (fun x -> List.map (eval x) gates) (decode j)) }

let check checkers j =
  let known = String.concat ", " (List.map (fun c -> c.schema) checkers) in
  match Option.bind (Json.member "schema" j) Json.str with
  | None -> Error (Printf.sprintf "field \"schema\": expected one of %s" known)
  | Some s -> (
    match List.find_opt (fun c -> c.schema = s) checkers with
    | None -> Error (Printf.sprintf "unknown schema %S (known: %s)" s known)
    | Some c -> Result.map (fun vs -> (s, vs)) (c.run j))

let op_string = function Lt -> "<" | Le -> "<=" | Eq -> "=" | Ge -> ">=" | Gt -> ">"

let line ~schema v =
  Printf.sprintf "gate %s %s: %g %s %g %s" schema v.gate v.value (op_string v.op) v.bound
    (if v.ok then "ok" else "FAIL")

let length l = float_of_int (List.length l)
let count p l = float_of_int (List.length (List.filter p l))
let sum_of f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let max_of f l = List.fold_left (fun acc x -> Float.max acc (f x)) Float.neg_infinity l
let min_of f l = List.fold_left (fun acc x -> Float.min acc (f x)) Float.infinity l
