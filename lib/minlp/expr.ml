type t =
  | Const of float
  | Var of int
  | Add of t list
  | Mul of t * t
  | Neg of t
  | Div of t * t
  | Pow of t * float
  | Exp of t
  | Log of t

let const c = Const c

let var j =
  if j < 0 then invalid_arg "Expr.var: negative index";
  Var j

(* --- light smart constructors --- *)

let add es =
  let flat =
    List.concat_map (function Add inner -> inner | e -> [ e ]) es
  in
  let consts, rest = List.partition (function Const _ -> true | _ -> false) flat in
  let csum = List.fold_left (fun acc e -> match e with Const c -> acc +. c | _ -> acc) 0. consts in
  match (rest, csum) with
  | [], c -> Const c
  | [ e ], 0. -> e
  | es, 0. -> Add es
  | es, c -> Add (es @ [ Const c ])

let neg = function Const c -> Const (-.c) | Neg e -> e | e -> Neg e

let mul a b =
  match (a, b) with
  | Const 0., _ | _, Const 0. -> Const 0.
  | Const 1., e | e, Const 1. -> e
  | Const x, Const y -> Const (x *. y)
  | a, b -> Mul (a, b)

let div a b =
  match (a, b) with
  | _, Const 0. -> invalid_arg "Expr.div: division by constant zero"
  | Const 0., _ -> Const 0.
  | e, Const 1. -> e
  | Const x, Const y -> Const (x /. y)
  | a, b -> Div (a, b)

let pow e p =
  match (e, p) with
  | _, 0. -> Const 1.
  | e, 1. -> e
  | Const c, p -> Const (c ** p)
  | e, p -> Pow (e, p)

let exp_ = function Const c -> Const (exp c) | e -> Exp e
let log_ = function Const c when c > 0. -> Const (log c) | e -> Log e
let scale c e = mul (Const c) e
let linear coeffs = add (List.map (fun (j, c) -> mul (Const c) (Var j)) coeffs)
let ( + ) a b = add [ a; b ]
let ( - ) a b = add [ a; neg b ]
let ( * ) = mul
let ( / ) = div

let rec eval e x =
  match e with
  | Const c -> c
  | Var j ->
    if j >= Array.length x then invalid_arg "Expr.eval: variable index out of range";
    x.(j)
  | Add es -> List.fold_left (fun acc e -> acc +. eval e x) 0. es
  | Mul (a, b) -> eval a x *. eval b x
  | Neg a -> -.eval a x
  | Div (a, b) -> eval a x /. eval b x
  | Pow (a, p) -> eval a x ** p
  | Exp a -> exp (eval a x)
  | Log a -> log (eval a x)

let rec diff e j =
  match e with
  | Const _ -> Const 0.
  | Var k -> if k = j then Const 1. else Const 0.
  | Add es -> add (List.map (fun e -> diff e j) es)
  | Mul (a, b) -> add [ mul (diff a j) b; mul a (diff b j) ]
  | Neg a -> neg (diff a j)
  | Div (a, b) ->
    (* (a'b - ab') / b² *)
    div (add [ mul (diff a j) b; neg (mul a (diff b j)) ]) (pow b 2.)
  | Pow (a, p) -> mul (Const p) (mul (pow a (p -. 1.)) (diff a j))
  | Exp a -> mul (Exp a) (diff a j)
  | Log a -> div (diff a j) a

let rec vars_aux acc = function
  | Const _ -> acc
  | Var j -> j :: acc
  | Add es -> List.fold_left vars_aux acc es
  | Mul (a, b) | Div (a, b) -> vars_aux (vars_aux acc a) b
  | Neg a | Pow (a, _) | Exp a | Log a -> vars_aux acc a

let vars e = List.sort_uniq compare (vars_aux [] e)
let max_var e = match List.rev (vars e) with [] -> -1 | j :: _ -> j

let gradient e x =
  let g = Array.make (Array.length x) 0. in
  List.iter (fun j -> g.(j) <- eval (diff e j) x) (vars e);
  g

(* --- compiled programs ---

   [eval] is a tree-walk interpreter; the AL/SPG inner loops in
   lib/nlp evaluate the same handful of expressions millions of times
   per relaxation, so the pointer-chasing and match dispatch dominate
   the solve wall.  [Compiled] lowers an expression once to a closure
   (tagless-final style): the dispatch happens at compile time, leaving
   only direct float work and indirect calls at evaluation time, with
   zero allocation per call.  Two structural fast paths cover the
   shapes the FMO allocation model actually produces:

   - a flat linear sum (every [Add] operand is [Const], [Var], or
     [Mul (Const, Var)]) evaluates as one loop over packed coefficient
     arrays — this is every assignment/SOS1 linking row;
   - scaled power terms [c * x_j ** p] (the scaling-law terms) fuse to
     a single closure.

   Bit-identity contract: compilation replays exactly the floating
   point operations of [eval], in the same order — [Add es] mirrors the
   left fold from [0.] (the leading [0. +. _] is kept: dropping it
   would flip the sign of a [-0.] sum), and [Mul (Const c, b)] computes
   [c *. eval b x] just as the interpreter does — so
   [Compiled.eval (Compiled.compile e) x] is bit-for-bit equal to
   [eval e x] on every point of sufficient length (test/test_minlp.ml
   pins this with qcheck).  Programs are immutable closures and safe to
   share across domains. *)

module Compiled = struct
  (* the expression-building operators shadow integer arithmetic above;
     restore it for arity bookkeeping *)
  let ( + ) = Stdlib.( + )

  let ( - ) = Stdlib.( - )

  type program = {
    f : float array -> float; (* unchecked body; [eval] guards arity *)
    arity : int; (* minimum point length: max var index + 1 *)
  }

  (* flat linear sums evaluate without per-term closure calls; term
     kinds: 0 = constant, 1 = bare variable, 2 = scaled variable *)
  let lin_term = function
    | Const c -> Some (0, c, -1)
    | Var j -> Some (1, 0., j)
    | Mul (Const c, Var j) -> Some (2, c, j)
    | _ -> None

  let compile_linear_sum terms =
    let n = List.length terms in
    let kind = Array.make n 0 and coef = Array.make n 0. and idx = Array.make n (-1) in
    List.iteri
      (fun k (kd, c, j) ->
        kind.(k) <- kd;
        coef.(k) <- c;
        idx.(k) <- j)
      terms;
    fun x ->
      (* mirrors [List.fold_left (fun acc e -> acc +. eval e x) 0. es] *)
      let s = ref 0. in
      for k = 0 to n - 1 do
        let kd = Array.unsafe_get kind k in
        let v =
          if kd = 0 then Array.unsafe_get coef k
          else if kd = 1 then Array.unsafe_get x (Array.unsafe_get idx k)
          else Array.unsafe_get coef k *. Array.unsafe_get x (Array.unsafe_get idx k)
        in
        s := !s +. v
      done;
      !s

  let compile e =
    let arity = ref 0 in
    let touch j =
      if j < 0 then invalid_arg "Expr.Compiled.compile: negative variable index";
      if j >= !arity then arity := j + 1
    in
    let rec go e : float array -> float =
      match e with
      | Const c -> fun _ -> c
      | Var j ->
        touch j;
        fun x -> Array.unsafe_get x j
      | Add es -> begin
        let lin =
          try Some (List.map (fun e -> match lin_term e with Some t -> t | None -> raise Exit) es)
          with Exit -> None
        in
        match lin with
        | Some terms ->
          List.iter (fun (_, _, j) -> if j >= 0 then touch j) terms;
          compile_linear_sum terms
        | None -> (
          (* mirror [List.fold_left (fun acc e -> acc +. eval e x) 0. es];
             small arities nest directly, longer sums loop over an array
             of compiled operands — both replay the same left fold *)
          match List.map go es with
          | [] -> fun _ -> 0.
          | [ fa ] -> fun x -> 0. +. fa x
          | [ fa; fb ] -> fun x -> (0. +. fa x) +. fb x
          | [ fa; fb; fc ] -> fun x -> ((0. +. fa x) +. fb x) +. fc x
          | [ fa; fb; fc; fd ] -> fun x -> (((0. +. fa x) +. fb x) +. fc x) +. fd x
          | fs ->
            let fs = Array.of_list fs in
            let n = Array.length fs in
            fun x ->
              let s = ref 0. in
              for k = 0 to n - 1 do
                s := !s +. (Array.unsafe_get fs k) x
              done;
              !s)
      end
      | Mul (Const c, Pow (Var j, p)) ->
        (* scaling-law term [c * n^p]: one closure for the whole chain *)
        touch j;
        fun x -> c *. (Array.unsafe_get x j ** p)
      | Mul (Const c, Var j) ->
        touch j;
        fun x -> c *. Array.unsafe_get x j
      | Mul (Const c, b) ->
        let fb = go b in
        fun x -> c *. fb x
      | Mul (a, Const c) ->
        let fa = go a in
        fun x -> fa x *. c
      | Mul (a, b) ->
        let fa = go a and fb = go b in
        fun x -> fa x *. fb x
      | Neg (Var j) ->
        touch j;
        fun x -> -.Array.unsafe_get x j
      | Neg a ->
        let fa = go a in
        fun x -> -.fa x
      | Div (a, Const c) ->
        let fa = go a in
        fun x -> fa x /. c
      | Div (a, b) ->
        let fa = go a and fb = go b in
        fun x -> fa x /. fb x
      | Pow (Var j, p) ->
        touch j;
        fun x -> Array.unsafe_get x j ** p
      | Pow (a, p) ->
        let fa = go a in
        fun x -> fa x ** p
      | Exp a ->
        let fa = go a in
        fun x -> exp (fa x)
      | Log a ->
        let fa = go a in
        fun x -> log (fa x)
    in
    let f = go e in
    { f; arity = !arity }

  let arity p = p.arity

  let eval p x =
    (* [eval] raises on the first out-of-range [Var] it reaches; the
       tree walk reaches every leaf, so one upfront arity check is
       observably equivalent *)
    if p.arity > Array.length x then
      invalid_arg "Expr.eval: variable index out of range";
    p.f x

  let unsafe_fn p = p.f

  (* partials are split at compile time: constant partials (every
     variable of a linear row) are read straight from an array, dynamic
     ones go through their compiled program.  Variable indices are
     distinct ([vars] sorts and dedups), so each output entry is
     written exactly once and the const/dynamic split cannot change
     rounding. *)
  type gradient = {
    cidx : int array; (* variables with constant partial *)
    cval : float array;
    didx : int array; (* variables with expression partial *)
    dprog : program array;
    g_arity : int; (* max arity across partials, checked once per call *)
  }

  let compile_gradient e =
    let parts = List.map (fun j -> (j, diff e j)) (vars e) in
    let consts = List.filter_map (function j, Const c -> Some (j, c) | _ -> None) parts in
    let dyn =
      List.filter_map (function _, Const _ -> None | j, d -> Some (j, compile d)) parts
    in
    {
      cidx = Array.of_list (List.map fst consts);
      cval = Array.of_list (List.map snd consts);
      didx = Array.of_list (List.map fst dyn);
      dprog = Array.of_list (List.map snd dyn);
      g_arity = List.fold_left (fun a (_, p) -> Stdlib.max a p.arity) 0 dyn;
    }

  let check_g g x =
    if g.g_arity > Array.length x then
      invalid_arg "Expr.eval: variable index out of range"

  let grad_into g x out =
    check_g g x;
    Array.fill out 0 (Array.length out) 0.;
    for k = 0 to Array.length g.cidx - 1 do
      out.(Array.unsafe_get g.cidx k) <- Array.unsafe_get g.cval k
    done;
    for k = 0 to Array.length g.didx - 1 do
      out.(Array.unsafe_get g.didx k) <- (Array.unsafe_get g.dprog k).f x
    done

  let grad_acc g x w acc =
    (* accumulate [acc += w · ∇e(x)] touching only the variables that
       occur in [e]; the rounding per touched entry matches
       [Vec.axpy w grad acc], i.e. (w *. g_j) +. acc_j *)
    check_g g x;
    for k = 0 to Array.length g.cidx - 1 do
      let j = Array.unsafe_get g.cidx k in
      acc.(j) <- (w *. Array.unsafe_get g.cval k) +. acc.(j)
    done;
    for k = 0 to Array.length g.didx - 1 do
      let j = Array.unsafe_get g.didx k in
      acc.(j) <- (w *. (Array.unsafe_get g.dprog k).f x) +. acc.(j)
    done
end

let rec simplify e =
  match e with
  | Const _ | Var _ -> e
  | Add es -> add (List.map simplify es)
  | Mul (a, b) -> mul (simplify a) (simplify b)
  | Neg a -> neg (simplify a)
  | Div (a, b) -> div (simplify a) (simplify b)
  | Pow (a, p) -> pow (simplify a) p
  | Exp a -> exp_ (simplify a)
  | Log a -> log_ (simplify a)

let rec is_linear = function
  | Const _ | Var _ -> true
  | Add es -> List.for_all is_linear es
  | Neg a -> is_linear a
  | Mul (Const _, e) | Mul (e, Const _) -> is_linear e
  | Div (e, Const _) -> is_linear e
  | Mul _ | Div _ | Pow _ | Exp _ | Log _ -> false

let linear_parts e =
  if not (is_linear e) then invalid_arg "Expr.linear_parts: not linear";
  let tbl = Hashtbl.create 8 in
  let constant = ref 0. in
  let bump j c = Hashtbl.replace tbl j (c +. Option.value ~default:0. (Hashtbl.find_opt tbl j)) in
  let rec go mult = function
    | Const c -> constant := !constant +. (mult *. c)
    | Var j -> bump j mult
    | Add es -> List.iter (go mult) es
    | Neg a -> go (-.mult) a
    | Mul (Const c, e) | Mul (e, Const c) -> go (mult *. c) e
    | Div (e, Const c) -> go (mult /. c) e
    | Mul _ | Div _ | Pow _ | Exp _ | Log _ -> assert false
  in
  go 1. e;
  let coeffs = Hashtbl.fold (fun j c acc -> (j, c) :: acc) tbl [] in
  (List.sort compare coeffs, !constant)

let linearize e x = (eval e x, gradient e x)

let rec pp fmt = function
  | Const c -> Format.fprintf fmt "%g" c
  | Var j -> Format.fprintf fmt "x%d" j
  | Add es ->
    Format.fprintf fmt "(";
    List.iteri (fun i e -> Format.fprintf fmt (if i = 0 then "%a" else " + %a") pp e) es;
    Format.fprintf fmt ")"
  | Mul (a, b) -> Format.fprintf fmt "(%a * %a)" pp a pp b
  | Neg a -> Format.fprintf fmt "-%a" pp a
  | Div (a, b) -> Format.fprintf fmt "(%a / %a)" pp a pp b
  | Pow (a, p) -> Format.fprintf fmt "%a^%g" pp a p
  | Exp a -> Format.fprintf fmt "exp(%a)" pp a
  | Log a -> Format.fprintf fmt "log(%a)" pp a

let to_string e = Format.asprintf "%a" pp e
