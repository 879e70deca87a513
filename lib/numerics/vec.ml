type t = float array

let create n x = Array.make n x
let init = Array.init
let copy = Array.copy
let dim = Array.length

let check_dims name u v =
  if Array.length u <> Array.length v then
    invalid_arg (Printf.sprintf "Vec.%s: dimension mismatch (%d vs %d)" name (Array.length u) (Array.length v))

let add u v =
  check_dims "add" u v;
  Array.init (Array.length u) (fun i -> u.(i) +. v.(i))

let sub u v =
  check_dims "sub" u v;
  Array.init (Array.length u) (fun i -> u.(i) -. v.(i))

let scale a v = Array.map (fun x -> a *. x) v

let axpy a x y =
  check_dims "axpy" x y;
  Array.init (Array.length x) (fun i -> (a *. x.(i)) +. y.(i))

let dot u v =
  check_dims "dot" u v;
  let acc = ref 0. in
  for i = 0 to Array.length u - 1 do
    acc := !acc +. (u.(i) *. v.(i))
  done;
  !acc

let norm2 v = sqrt (dot v v)

let norm_inf v = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. v

let dist2 u v = norm2 (sub u v)
let map = Array.map

let map2 f u v =
  check_dims "map2" u v;
  Array.init (Array.length u) (fun i -> f u.(i) v.(i))

(* Kahan summation: the optimization loops sum many small residuals and
   plain left-to-right addition loses precision noticeably there. *)
let sum v =
  let s = ref 0. and c = ref 0. in
  for i = 0 to Array.length v - 1 do
    let y = v.(i) -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

let mean v =
  if Array.length v = 0 then invalid_arg "Vec.mean: empty vector";
  sum v /. float_of_int (Array.length v)

let clamp ~lo ~hi v =
  check_dims "clamp" lo v;
  check_dims "clamp" hi v;
  Array.init (Array.length v) (fun i -> Float.min hi.(i) (Float.max lo.(i) v.(i)))

let arg_extreme name better v =
  if Array.length v = 0 then invalid_arg name;
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if better v.(i) v.(!best) then best := i
  done;
  !best

let argmax v = arg_extreme "Vec.argmax: empty vector" (fun a b -> a > b) v
let argmin v = arg_extreme "Vec.argmin: empty vector" (fun a b -> a < b) v

let equal ~eps u v =
  Array.length u = Array.length v
  &&
  let ok = ref true in
  for i = 0 to Array.length u - 1 do
    if Float.abs (u.(i) -. v.(i)) > eps then ok := false
  done;
  !ok

let pp fmt v =
  Format.fprintf fmt "[|";
  Array.iteri (fun i x -> Format.fprintf fmt (if i = 0 then "%g" else "; %g") x) v;
  Format.fprintf fmt "|]"

let to_string v = Format.asprintf "%a" pp v
