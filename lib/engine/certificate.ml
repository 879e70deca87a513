type cover = { explored : int; pruned : int; open_branches : int }
type side = Below of int | Floor of int

type evidence =
  | Gap_closed
  | Cover_exhausted of cover
  | Threshold of side array
  | Exact_method of string
  | Incumbent_only
  | No_witness

type t = {
  producer : string;
  claimed_status : Status.t;
  witness : float array option;
  claimed_obj : float;
  claimed_bound : float;
  minimize : bool;
  tol : float;
  evidence : evidence;
  budget_stop : string option;
}

let make ~producer ~claimed_status ?witness ?(claimed_obj = nan) ?(claimed_bound = nan)
    ?(minimize = true) ?(tol = 1e-6) ~evidence ?budget_stop () =
  { producer; claimed_status; witness; claimed_obj; claimed_bound; minimize; tol;
    evidence; budget_stop }

let evidence_to_string = function
  | Gap_closed -> "gap-closed"
  | Cover_exhausted c ->
    Printf.sprintf "cover-exhausted (%d explored, %d pruned, %d open)" c.explored c.pruned
      c.open_branches
  | Threshold sides ->
    Printf.sprintf "threshold (%s)"
      (String.concat ", "
         (Array.to_list
            (Array.map
               (function Below v -> string_of_int v | Floor v -> "floor " ^ string_of_int v)
               sides)))
  | Exact_method m -> Printf.sprintf "exact (%s)" m
  | Incumbent_only -> "incumbent-only"
  | No_witness -> "no-witness"

(* min-sense view of a problem-sense value, so gap arithmetic is
   uniform: smaller is always better *)
let key t v = if t.minimize then v else -.v

let gap t =
  match t.witness with
  | None -> nan
  | Some _ -> key t t.claimed_obj -. t.claimed_bound

let json_float x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else "null"

let to_json t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "{\"producer\": %S, \"status\": %S, " t.producer
       (Status.to_string t.claimed_status));
  (match t.witness with
  | None -> Buffer.add_string b "\"witness\": null, "
  | Some w ->
    Buffer.add_string b "\"witness\": [";
    Array.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string b ", ";
        Buffer.add_string b (json_float v))
      w;
    Buffer.add_string b "], ");
  Buffer.add_string b
    (Printf.sprintf
       "\"objective\": %s, \"bound\": %s, \"minimize\": %b, \"tol\": %s, \"evidence\": %S, \
        \"budget_stop\": %s}"
       (json_float t.claimed_obj) (json_float t.claimed_bound) t.minimize (json_float t.tol)
       (evidence_to_string t.evidence)
       (match t.budget_stop with None -> "null" | Some r -> Printf.sprintf "%S" r));
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "%s claims %s (obj %g, bound %g, tol %g; %s%s)" t.producer
    (Status.to_string t.claimed_status) t.claimed_obj t.claimed_bound t.tol
    (evidence_to_string t.evidence)
    (match t.budget_stop with None -> "" | Some r -> "; budget stop: " ^ r)
