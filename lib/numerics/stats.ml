let mean a = Vec.mean a

let variance a =
  let n = Array.length a in
  if n < 2 then 0.
  else begin
    let m = mean a in
    let acc = ref 0. in
    Array.iter (fun x -> acc := !acc +. ((x -. m) *. (x -. m))) a;
    !acc /. float_of_int (n - 1)
  end

let stddev a = sqrt (variance a)

let quantile q a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  if q < 0. || q > 1. then invalid_arg "Stats.quantile: q outside [0,1]";
  let s = Array.copy a in
  Array.sort compare s;
  let pos = q *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor pos) in
  let hi = int_of_float (Float.ceil pos) in
  if lo = hi then s.(lo) else s.(lo) +. ((pos -. float_of_int lo) *. (s.(hi) -. s.(lo)))

let median a = quantile 0.5 a

let check_paired name a b =
  if Array.length a <> Array.length b then invalid_arg ("Stats." ^ name ^ ": length mismatch");
  if Array.length a = 0 then invalid_arg ("Stats." ^ name ^ ": empty sample")

let r_squared ~observed ~predicted =
  check_paired "r_squared" observed predicted;
  let m = mean observed in
  let ss_tot = ref 0. and ss_res = ref 0. in
  Array.iteri
    (fun i y ->
      ss_tot := !ss_tot +. ((y -. m) *. (y -. m));
      let e = y -. predicted.(i) in
      ss_res := !ss_res +. (e *. e))
    observed;
  if !ss_tot <= 0. then if !ss_res <= 0. then 1. else 0. else 1. -. (!ss_res /. !ss_tot)

let rmse ~observed ~predicted =
  check_paired "rmse" observed predicted;
  let acc = ref 0. in
  Array.iteri
    (fun i y ->
      let e = y -. predicted.(i) in
      acc := !acc +. (e *. e))
    observed;
  sqrt (!acc /. float_of_int (Array.length observed))
