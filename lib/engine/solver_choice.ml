type t = Exact | Oa | Bnb | Oa_multi

let all = [ Exact; Oa; Bnb; Oa_multi ]
let minlp = [ Oa; Bnb; Oa_multi ]

let to_string = function
  | Exact -> "exact"
  | Oa -> "oa"
  | Bnb -> "bnb"
  | Oa_multi -> "oa-multi"

let of_string s =
  match String.lowercase_ascii s with
  | "exact" -> Ok Exact
  | "oa" -> Ok Oa
  | "bnb" -> Ok Bnb
  | "oa-multi" | "oa_multi" | "multi" -> Ok Oa_multi
  | s ->
    Error
      (Printf.sprintf "unknown solver %S (expected %s)" s
         (String.concat ", " (List.map to_string all)))

let pp fmt t = Format.pp_print_string fmt (to_string t)
