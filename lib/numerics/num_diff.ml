let gradient ?(h = 1e-6) f x =
  let n = Array.length x in
  let g = Array.make n 0. in
  let xi = Array.copy x in
  for i = 0 to n - 1 do
    let d = h *. Float.max 1. (Float.abs x.(i)) in
    xi.(i) <- x.(i) +. d;
    let fp = f xi in
    xi.(i) <- x.(i) -. d;
    let fm = f xi in
    xi.(i) <- x.(i);
    g.(i) <- (fp -. fm) /. (2. *. d)
  done;
  g
