type t = { nr : int; nc : int; data : float array }

exception Singular

let create nr nc x =
  if nr < 0 || nc < 0 then invalid_arg "Mat.create: negative dimension";
  { nr; nc; data = Array.make (nr * nc) x }

let init nr nc f =
  if nr < 0 || nc < 0 then invalid_arg "Mat.init: negative dimension";
  { nr; nc; data = Array.init (nr * nc) (fun k -> f (k / nc) (k mod nc)) }

let of_arrays a =
  let nr = Array.length a in
  if nr = 0 then invalid_arg "Mat.of_arrays: empty";
  let nc = Array.length a.(0) in
  Array.iter (fun r -> if Array.length r <> nc then invalid_arg "Mat.of_arrays: ragged rows") a;
  init nr nc (fun i j -> a.(i).(j))

let rows m = m.nr
let cols m = m.nc
let get m i j = m.data.((i * m.nc) + j)
let set m i j x = m.data.((i * m.nc) + j) <- x
let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let copy m = { m with data = Array.copy m.data }
let row m i = Array.init m.nc (fun j -> get m i j)
let col m j = Array.init m.nr (fun i -> get m i j)
let transpose m = init m.nc m.nr (fun i j -> get m j i)

let check_same name a b =
  if a.nr <> b.nr || a.nc <> b.nc then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)" name a.nr a.nc b.nr b.nc)

let add a b =
  check_same "add" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) +. b.data.(k)) }

let sub a b =
  check_same "sub" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> a.data.(k) -. b.data.(k)) }

let scale s m = { m with data = Array.map (fun x -> s *. x) m.data }

let mul a b =
  if a.nc <> b.nr then invalid_arg "Mat.mul: inner dimension mismatch";
  let c = create a.nr b.nc 0. in
  for i = 0 to a.nr - 1 do
    for k = 0 to a.nc - 1 do
      let aik = get a i k in
      if aik <> 0. then
        for j = 0 to b.nc - 1 do
          set c i j (get c i j +. (aik *. get b k j))
        done
    done
  done;
  c

let mul_vec m v =
  if m.nc <> Array.length v then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init m.nr (fun i ->
      let acc = ref 0. in
      for j = 0 to m.nc - 1 do
        acc := !acc +. (get m i j *. v.(j))
      done;
      !acc)

let tmul_vec m v =
  if m.nr <> Array.length v then invalid_arg "Mat.tmul_vec: dimension mismatch";
  Array.init m.nc (fun j ->
      let acc = ref 0. in
      for i = 0 to m.nr - 1 do
        acc := !acc +. (get m i j *. v.(i))
      done;
      !acc)

type lu = { lu_mat : t; perm : int array }

let pivot_eps = 1e-13

let lu_decompose a =
  if a.nr <> a.nc then invalid_arg "Mat.lu_decompose: not square";
  let n = a.nr in
  let m = copy a in
  let perm = Array.init n (fun i -> i) in
  for k = 0 to n - 1 do
    (* partial pivoting: pick the largest magnitude in column k *)
    let piv = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs (get m i k) > Float.abs (get m !piv k) then piv := i
    done;
    if !piv <> k then begin
      for j = 0 to n - 1 do
        let t = get m k j in
        set m k j (get m !piv j);
        set m !piv j t
      done;
      let t = perm.(k) in
      perm.(k) <- perm.(!piv);
      perm.(!piv) <- t
    end;
    let pivot = get m k k in
    if Float.abs pivot < pivot_eps then raise Singular;
    for i = k + 1 to n - 1 do
      let f = get m i k /. pivot in
      set m i k f;
      for j = k + 1 to n - 1 do
        set m i j (get m i j -. (f *. get m k j))
      done
    done
  done;
  { lu_mat = m; perm }

let lu_solve { lu_mat = m; perm } b =
  let n = m.nr in
  if Array.length b <> n then invalid_arg "Mat.lu_solve: dimension mismatch";
  let x = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      x.(i) <- x.(i) -. (get m i j *. x.(j))
    done
  done;
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- x.(i) -. (get m i j *. x.(j))
    done;
    x.(i) <- x.(i) /. get m i i
  done;
  x

let solve a b = lu_solve (lu_decompose a) b

let inverse a =
  let f = lu_decompose a in
  let n = a.nr in
  let inv = create n n 0. in
  for j = 0 to n - 1 do
    let e = Array.init n (fun i -> if i = j then 1. else 0.) in
    let x = lu_solve f e in
    for i = 0 to n - 1 do
      set inv i j x.(i)
    done
  done;
  inv

let equal ~eps a b =
  a.nr = b.nr && a.nc = b.nc
  &&
  let ok = ref true in
  Array.iteri (fun k x -> if Float.abs (x -. b.data.(k)) > eps then ok := false) a.data;
  !ok

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.nr - 1 do
    Format.fprintf fmt "[";
    for j = 0 to m.nc - 1 do
      Format.fprintf fmt (if j = 0 then "%10.4g" else " %10.4g") (get m i j)
    done;
    Format.fprintf fmt "]";
    if i < m.nr - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
