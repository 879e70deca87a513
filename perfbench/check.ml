(* Per-op correctness checks. A failed check counts against ok_frac. *)

module J = Obs.Json

(* T(n) = a/n^c + b*n + d, evaluated here rather than through
   Scaling_law so a served answer is judged against the request's own
   coefficients, not against the program's code for them. *)
let time_of (l : Gen.law) n =
  let n = float_of_int n in
  (l.a /. (n ** l.c)) +. (l.b *. n) +. l.d

let makespan (inst : Gen.instance) nodes_per_task =
  let worst = ref neg_infinity in
  Array.iteri (fun c l -> worst := Float.max !worst (time_of l nodes_per_task.(c))) inst.laws;
  !worst

let field name v = match J.member name v with Some x -> Ok x | None -> Error ("no " ^ name)

let ( let* ) = Result.bind

(* A served solve reply is correct when the outcome is ok, the
   optimality claim was re-verified by the server's auditor, and the
   allocation is consistent with THIS request's instance: one entry per
   class, every class at least one node, the budget
   sum(count * n) <= nodes respected, and the reported makespan equal
   to max_c T_c(n_c) under the request's own laws. An answer meant for
   another instance (a cache-key mix-up) fails the last test. *)
let served_reply (inst : Gen.instance) (reply : J.t) =
  let* outcome = field "outcome" reply in
  let* () =
    if outcome = J.Str "ok" then Ok () else Error ("outcome " ^ J.to_string outcome)
  in
  let* status = field "status" reply in
  let* () =
    if status = J.Str "optimal" then Ok () else Error ("status " ^ J.to_string status)
  in
  let* audit = field "audit" reply in
  let* () =
    match audit with
    | J.Str s when String.starts_with ~prefix:"verified (" s -> Ok ()
    | v -> Error ("audit " ^ J.to_string v)
  in
  let* npt = field "nodes_per_task" reply in
  let* npt =
    match J.arr npt with
    | Some xs when List.length xs = Array.length inst.laws -> (
      let ns = List.filter_map J.int_ xs in
      if List.length ns = List.length xs then Ok (Array.of_list ns)
      else Error "nodes_per_task holds a non-integer")
    | Some _ | None -> Error "nodes_per_task does not have one entry per class"
  in
  let* () =
    if Array.for_all (fun n -> n >= 1) npt then Ok ()
    else Error "a class got fewer than one node"
  in
  let used = ref 0 in
  Array.iteri (fun c (l : Gen.law) -> used := !used + (l.count * npt.(c))) inst.laws;
  let* () =
    if !used <= Gen.nodes_per_instance then Ok ()
    else Error (Printf.sprintf "budget exceeded: %d > %d nodes" !used Gen.nodes_per_instance)
  in
  let* reported =
    match Option.bind (J.member "makespan" reply) J.num with
    | Some m -> Ok m
    | None -> Error "no numeric makespan"
  in
  let expected = makespan inst npt in
  if Float.abs (reported -. expected) <= 1e-9 *. Float.max 1. (Float.abs expected) then
    Ok expected
  else Error (Printf.sprintf "makespan %.17g, but max_c T_c(n_c) = %.17g" reported expected)

(* An fmo op is correct when the monomer allocation is proven Optimal
   and the independent auditor accepts its certificate against the
   MINLP rebuilt from the plan's own fitted classes. *)
let fmo_plan ~n_total (hp : Hslb.Fmo_app.hslb_plan) =
  let alloc = hp.Hslb.Fmo_app.allocation in
  match alloc.Hslb.Alloc_model.status with
  | Minlp.Solution.Optimal -> (
    match alloc.Hslb.Alloc_model.certificate with
    | None -> Error "no certificate"
    | Some cert -> (
      let specs = List.map (fun fc -> Hslb.Alloc_model.spec_of fc) hp.Hslb.Fmo_app.monomer_fits in
      let problem, _, _ =
        Hslb.Alloc_model.build_minlp ~objective:Hslb.Objective.Min_max ~n_total specs
      in
      match Audit.check_minlp problem cert with
      | Ok () -> Ok ()
      | Error _ as v -> Error ("audit rejected: " ^ Audit.summary v)))
  | st -> Error ("status " ^ Minlp.Solution.status_to_string st)
