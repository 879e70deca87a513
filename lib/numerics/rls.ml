(* Recursive least squares in information-filter form: keep
   P = (J^T J + ridge I)^-1 and theta, fold each new linearized row in
   with the Sherman-Morrison identity. Dimensions here are tiny (4 for
   the scaling-law fit), so plain float arrays beat anything clever. *)

type t = {
  k : int;
  theta : float array;
  p : float array array;  (* symmetric; kept symmetric by construction *)
}

let create theta0 =
  let prior = 1e-4 in
  let k = Array.length theta0 in
  if k = 0 then invalid_arg "Rls.create: empty parameter vector";
  {
    k;
    theta = Array.copy theta0;
    p = Array.init k (fun i -> Array.init k (fun j -> if i = j then 1. /. prior else 0.));
  }

(* Jacobi-scaled: with D the square roots of J^T J's diagonal (1 where
   a column is zero), P = D^-1 (D^-1 J^T J D^-1 + ridge I)^-1 D^-1. The
   scaled matrix has a unit diagonal and entries of magnitude <= 1, so
   the ridge is relative to each parameter's scale and the inverse
   exists however far apart the scales are (n/y and 1/y columns differ
   by the node count) *)
let of_normal_equations ~jtj theta0 =
  let ridge = 1e-8 in
  let k = Array.length theta0 in
  if k = 0 then invalid_arg "Rls.of_normal_equations: empty parameter vector";
  if Array.length jtj <> k || Array.exists (fun row -> Array.length row <> k) jtj then
    invalid_arg "Rls.of_normal_equations: jtj must be k x k";
  let d = Array.init k (fun i -> if jtj.(i).(i) > 0. then sqrt jtj.(i).(i) else 1.) in
  let m = Mat.init k k (fun i j -> (jtj.(i).(j) /. (d.(i) *. d.(j))) +. if i = j then ridge else 0.) in
  let inv = Mat.inverse m in
  {
    k;
    theta = Array.copy theta0;
    p = Array.init k (fun i -> Array.init k (fun j -> Mat.get inv i j /. (d.(i) *. d.(j))));
  }

let check_len t what v =
  if Array.length v <> t.k then
    invalid_arg (Printf.sprintf "Rls.%s: expected length %d, got %d" what t.k (Array.length v))

let update t ~gradient:g ~error =
  check_len t "update" g;
  let pg = Array.make t.k 0. in
  for i = 0 to t.k - 1 do
    let s = ref 0. in
    for j = 0 to t.k - 1 do
      s := !s +. (t.p.(i).(j) *. g.(j))
    done;
    pg.(i) <- !s
  done;
  let denom = ref 1. in
  for i = 0 to t.k - 1 do
    denom := !denom +. (g.(i) *. pg.(i))
  done;
  let denom = !denom in
  (* a row scaled so far from P that a term of the step overflows
     would leave NaN in the state; it is refused whole *)
  if not (Float.is_finite denom && Array.for_all (fun v -> Float.is_finite (v *. v)) pg) then
    false
  else begin
    (* theta += (P g / denom) * error *)
    for i = 0 to t.k - 1 do
      t.theta.(i) <- t.theta.(i) +. (pg.(i) /. denom *. error)
    done;
    (* P -= (P g)(P g)^T / denom — symmetric rank-one downdate *)
    for i = 0 to t.k - 1 do
      for j = 0 to t.k - 1 do
        t.p.(i).(j) <- t.p.(i).(j) -. (pg.(i) *. pg.(j) /. denom)
      done
    done;
    true
  end

let theta t = Array.copy t.theta

let set_theta t v =
  check_len t "set_theta" v;
  Array.blit v 0 t.theta 0 t.k
