let golden = (3. -. sqrt 5.) /. 2.

(* golden-section search to an absolute bracket width [tol]. The answer
   is the best point evaluated (the first of equal values), never an
   unevaluated midpoint, so it is no worse than either interior start. *)
let golden_min ?(tol = 1e-10) f ~lo ~hi =
  let ratio = (sqrt 5. -. 1.) /. 2. in
  let lo = ref lo and hi = ref hi in
  let x1 = ref (!hi -. (ratio *. (!hi -. !lo))) and x2 = ref (!lo +. (ratio *. (!hi -. !lo))) in
  let f1 = ref (f !x1) and f2 = ref (f !x2) in
  let best = ref (if !f2 < !f1 then (!x2, !f2) else (!x1, !f1)) in
  let eval x =
    let fx = f x in
    if fx < snd !best then best := (x, fx);
    fx
  in
  (* [x1 < x2] stops a [tol] below the bracket's float spacing *)
  while !hi -. !lo > tol && !x1 < !x2 do
    if !f1 <= !f2 then begin
      hi := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !hi -. (ratio *. (!hi -. !lo));
      f1 := eval !x1
    end
    else begin
      lo := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !lo +. (ratio *. (!hi -. !lo));
      f2 := eval !x2
    end
  done;
  !best

(* Brent's method: golden-section with a parabolic-interpolation shortcut. *)
let brent_min ?(tol = 1e-10) ?(max_iter = 200) f ~lo ~hi =
  let a = ref lo and b = ref hi in
  let x = ref (!a +. (golden *. (!b -. !a))) in
  let w = ref !x and v = ref !x in
  let fx = ref (f !x) in
  let fw = ref !fx and fv = ref !fx in
  let d = ref 0. and e = ref 0. in
  let iter = ref 0 in
  let continue = ref true in
  while !continue && !iter < max_iter do
    incr iter;
    let m = 0.5 *. (!a +. !b) in
    let tol1 = (tol *. Float.abs !x) +. 1e-12 in
    let tol2 = 2. *. tol1 in
    if Float.abs (!x -. m) <= tol2 -. (0.5 *. (!b -. !a)) then continue := false
    else begin
      let use_golden = ref true in
      if Float.abs !e > tol1 then begin
        (* try parabolic fit through x, w, v *)
        let r = (!x -. !w) *. (!fx -. !fv) in
        let q = (!x -. !v) *. (!fx -. !fw) in
        let p = ((!x -. !v) *. q) -. ((!x -. !w) *. r) in
        let q2 = 2. *. (q -. r) in
        let p = if q2 > 0. then -.p else p in
        let q2 = Float.abs q2 in
        let etemp = !e in
        e := !d;
        if
          Float.abs p < Float.abs (0.5 *. q2 *. etemp)
          && p > q2 *. (!a -. !x)
          && p < q2 *. (!b -. !x)
        then begin
          d := p /. q2;
          let u = !x +. !d in
          if u -. !a < tol2 || !b -. u < tol2 then
            d := if m -. !x >= 0. then tol1 else -.tol1;
          use_golden := false
        end
      end;
      if !use_golden then begin
        e := (if !x >= m then !a -. !x else !b -. !x);
        d := golden *. 2. *. !e
      end;
      let u =
        if Float.abs !d >= tol1 then !x +. !d
        else !x +. (if !d >= 0. then tol1 else -.tol1)
      in
      let fu = f u in
      if fu <= !fx then begin
        if u >= !x then a := !x else b := !x;
        v := !w;
        fv := !fw;
        w := !x;
        fw := !fx;
        x := u;
        fx := fu
      end
      else begin
        if u < !x then a := u else b := u;
        if fu <= !fw || !w = !x then begin
          v := !w;
          fv := !fw;
          w := u;
          fw := fu
        end
        else if fu <= !fv || !v = !x || !v = !w then begin
          v := u;
          fv := fu
        end
      end
    end
  done;
  (!x, !fx)
