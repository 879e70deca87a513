type t = { mutable state : int64; mutable cached_normal : float option }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let create seed = { state = mix64 (Int64.of_int seed); cached_normal = None }
let split t = { state = next_int64 t; cached_normal = None }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* keep 62 bits so the value fits OCaml's 63-bit native int non-negatively *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* 53 random bits -> uniform float in [0,1) *)
let unit_float t =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1. /. 9007199254740992.)

let float t bound = unit_float t *. bound
let uniform t ~lo ~hi = lo +. (unit_float t *. (hi -. lo))

let normal t ~mu ~sigma =
  match t.cached_normal with
  | Some z ->
    t.cached_normal <- None;
    mu +. (sigma *. z)
  | None ->
    let rec draw () =
      let u = unit_float t in
      if u <= 1e-300 then draw () else u
    in
    let u1 = draw () and u2 = unit_float t in
    let r = sqrt (-2. *. log u1) in
    let theta = 2. *. Float.pi *. u2 in
    t.cached_normal <- Some (r *. sin theta);
    mu +. (sigma *. r *. cos theta)

let lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
