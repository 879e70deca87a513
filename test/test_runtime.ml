(* Runtime subsystem tests: worker pool, solve cache + fingerprints,
   cross-domain cancellation, and the model-store error-reporting
   satellite. *)

let check_float ?(eps = 1e-6) msg expected actual =
  if Float.abs (expected -. actual) > eps *. (1. +. Float.abs expected) then
    Alcotest.failf "%s: expected %.10g, got %.10g" msg expected actual

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------- Config ---------- *)

let test_config_clamps () =
  let before = Runtime.Config.jobs () in
  Runtime.Config.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Runtime.Config.jobs ());
  Runtime.Config.set_jobs 3;
  Alcotest.(check int) "set" 3 (Runtime.Config.jobs ());
  Runtime.Config.set_jobs before;
  Alcotest.(check bool) "recommended positive" true (Runtime.Config.recommended () >= 1)

let test_config_parse () =
  Alcotest.(check bool) "plain" true (Runtime.Config.parse "4" = Ok 4);
  Alcotest.(check bool) "trimmed" true (Runtime.Config.parse " 8 " = Ok 8);
  List.iter
    (fun bad ->
      match Runtime.Config.parse bad with
      | Ok n -> Alcotest.failf "accepted %S as %d" bad n
      | Error msg ->
        Alcotest.(check bool) (bad ^ " names the expectation") true
          (contains_substring msg "positive integer"))
    [ "0"; "-2"; "banana"; ""; "2.5" ]

let test_config_from_env_warns () =
  let warned = ref [] in
  let warn msg = warned := msg :: !warned in
  (* an invalid value must fall back to 1 *loudly*, not silently *)
  Unix.putenv Runtime.Config.env_var "banana";
  Alcotest.(check int) "invalid falls back to 1" 1 (Runtime.Config.from_env ~warn ());
  (match !warned with
  | [ msg ] ->
    Alcotest.(check bool) "names the variable" true
      (contains_substring msg Runtime.Config.env_var);
    Alcotest.(check bool) "quotes the offending value" true
      (contains_substring msg "banana")
  | l -> Alcotest.failf "expected exactly one warning, got %d" (List.length l));
  warned := [];
  Unix.putenv Runtime.Config.env_var "3";
  Alcotest.(check int) "valid value honoured" 3 (Runtime.Config.from_env ~warn ());
  Alcotest.(check int) "no warning on valid input" 0 (List.length !warned);
  (* the environment persists for the rest of the test binary *)
  Unix.putenv Runtime.Config.env_var "1"

(* ---------- Pool ---------- *)

let test_pool_preserves_order () =
  let items = List.init 20 Fun.id in
  (* later items finish first, so completion order is the reverse of
     submission order — results must still come back in input order *)
  let f i =
    Unix.sleepf (0.002 *. float_of_int (19 - i));
    i * i
  in
  let seq = List.map f items in
  Alcotest.(check (list int)) "jobs=1" seq (Runtime.Pool.map ~jobs:1 f items);
  Alcotest.(check (list int)) "jobs=4" seq (Runtime.Pool.map ~jobs:4 f items);
  Alcotest.(check (list int)) "more jobs than items" seq (Runtime.Pool.map ~jobs:64 f items);
  Alcotest.(check (list int)) "empty" [] (Runtime.Pool.map ~jobs:4 f [])

let test_pool_reraises_first_exception () =
  let thunks =
    [
      (fun () -> 1);
      (fun () -> failwith "boom-second");
      (fun () -> failwith "boom-third");
      (fun () -> 4);
    ]
  in
  (match Runtime.Pool.run ~jobs:4 thunks with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg -> Alcotest.(check string) "lowest index wins" "boom-second" msg);
  match Runtime.Pool.run ~jobs:1 thunks with
  | _ -> Alcotest.fail "expected an exception (sequential)"
  | exception Failure msg -> Alcotest.(check string) "sequential too" "boom-second" msg

(* kept non-tail so the frame survives into the recorded backtrace *)
let raise_in_worker () =
  ignore (failwith "bt-probe" : unit);
  ()

let test_pool_preserves_backtraces () =
  (* set before spawning: worker domains inherit the flag *)
  Printexc.record_backtrace true;
  match Runtime.Pool.run ~jobs:2 [ (fun () -> Unix.sleepf 0.005); raise_in_worker ] with
  | _ -> Alcotest.fail "expected an exception"
  | exception Failure msg ->
    Alcotest.(check string) "payload intact" "bt-probe" msg;
    let bt = Printexc.get_backtrace () in
    (* a bare [raise] at the re-raise site would reset the trace to
       pool.ml; the raise_with_backtrace path must keep the
       worker-domain frames that actually raised *)
    Alcotest.(check bool) "worker frame survives the domain boundary" true
      (contains_substring bt "test_runtime")

(* the width policy is pure data: pin the decisions that guard against
   core starvation (domains beyond the physical cores thrash a shared
   machine rather than speed it up) *)
let test_pool_decide () =
  let open Runtime.Pool in
  Alcotest.(check bool) "one core is sequential, whatever jobs says" true
    (decide ~cores:1 ~jobs:64 ~tasks:100 = Sequential);
  Alcotest.(check bool) "requested width clamps to cores" true
    (decide ~cores:4 ~jobs:64 ~tasks:100 = Parallel 4);
  Alcotest.(check bool) "width never exceeds the task count" true
    (decide ~cores:8 ~jobs:8 ~tasks:3 = Parallel 3);
  Alcotest.(check bool) "a single task never spawns" true
    (decide ~cores:8 ~jobs:8 ~tasks:1 = Sequential);
  Alcotest.(check bool) "no tasks, no domains" true
    (decide ~cores:8 ~jobs:8 ~tasks:0 = Sequential);
  Alcotest.(check bool) "jobs=1 forces sequential" true
    (decide ~cores:8 ~jobs:1 ~tasks:10 = Sequential)

(* ---------- Cache ---------- *)

let test_cache_lru_eviction () =
  let c = Runtime.Cache.create ~capacity:3 () in
  Runtime.Cache.put c "a" 1;
  Runtime.Cache.put c "b" 2;
  Runtime.Cache.put c "c" 3;
  (* touch "a" so "b" is now least recently used *)
  Alcotest.(check (option int)) "a cached" (Some 1) (Runtime.Cache.find c "a");
  Runtime.Cache.put c "d" 4;
  Alcotest.(check (option int)) "b evicted" None (Runtime.Cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Runtime.Cache.find c "a");
  Alcotest.(check (option int)) "d present" (Some 4) (Runtime.Cache.find c "d");
  Alcotest.(check int) "length at capacity" 3 (Runtime.Cache.length c);
  Alcotest.(check (list string)) "recency order" [ "d"; "a"; "c" ]
    (Runtime.Cache.keys_by_recency c);
  Alcotest.(check int) "hits" 3 (Runtime.Cache.hits c);
  Alcotest.(check int) "misses" 1 (Runtime.Cache.misses c);
  Runtime.Cache.clear c;
  Alcotest.(check int) "cleared" 0 (Runtime.Cache.length c);
  Alcotest.(check int) "counters kept" 3 (Runtime.Cache.hits c);
  match Runtime.Cache.create ~capacity:0 () with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

let test_cache_recurring_put () =
  let c = Runtime.Cache.create ~capacity:2 () in
  Runtime.Cache.put ~recurring:true c "a" 1;
  Alcotest.(check int) "first sight declined" 0 (Runtime.Cache.length c);
  Runtime.Cache.put ~recurring:true c "a" 1;
  Alcotest.(check (option int)) "second sight stored" (Some 1) (Runtime.Cache.find c "a");
  (* the ring holds the last [capacity] declines: "b" is forgotten *)
  List.iter (fun k -> Runtime.Cache.put ~recurring:true c k 2) [ "b"; "x"; "y"; "b" ];
  Alcotest.(check (option int)) "forgotten key declined again" None (Runtime.Cache.find c "b");
  Runtime.Cache.put ~recurring:true c "b" 2;
  Alcotest.(check (option int)) "then stored" (Some 2) (Runtime.Cache.find c "b");
  (* a cached key is refreshed as by a plain put *)
  Runtime.Cache.put ~recurring:true c "a" 10;
  Alcotest.(check (option int)) "refreshed" (Some 10) (Runtime.Cache.find c "a");
  Runtime.Cache.clear c;
  Runtime.Cache.put ~recurring:true c "b" 2;
  Alcotest.(check int) "clear forgets declines" 0 (Runtime.Cache.length c)

let test_cache_refresh_on_put () =
  let c = Runtime.Cache.create ~capacity:2 () in
  Runtime.Cache.put c "a" 1;
  Runtime.Cache.put c "b" 2;
  Runtime.Cache.put c "a" 10;
  (* refreshing "a" made "b" the LRU entry *)
  Runtime.Cache.put c "c" 3;
  Alcotest.(check (option int)) "refreshed value" (Some 10) (Runtime.Cache.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Runtime.Cache.find c "b")

(* ---------- shared fitted-class helpers ---------- *)

let fitted_of_law ~name ~count law =
  let cls =
    Hslb.Classes.make ~name ~count (fun ~nodes -> Scaling_law.eval_int law nodes)
  in
  List.hd
    (Hslb.Classes.gather_and_fit ~sizes:[ 1; 2; 4; 8; 16; 64; 256 ] ~reps:1 [ cls ])

let e6_specs ?allowed ?(classes = 6) () =
  List.init classes (fun i ->
      let law =
        Scaling_law.make
          ~a:(150. +. (170. *. float_of_int i))
          ~b:1e-6
          ~c:(0.78 +. (0.035 *. float_of_int (i mod 6)))
          ~d:(0.3 +. (0.4 *. float_of_int i))
      in
      let fc = fitted_of_law ~name:(Printf.sprintf "k%d" i) ~count:(1 + (i mod 3)) law in
      match allowed with
      | None -> Hslb.Alloc_model.spec_of fc
      | Some vals -> Hslb.Alloc_model.spec_of ~allowed:vals fc)

(* ---------- fingerprints ---------- *)

let test_fingerprint_injective () =
  let fp = Hslb.Alloc_model.fingerprint ~solver:Engine.Solver_choice.Oa in
  let specs = e6_specs ~classes:2 () in
  let with_allowed vals =
    List.map (fun s -> { s with Hslb.Alloc_model.allowed = Some vals }) specs
  in
  let base = fp ~objective:Hslb.Objective.Min_max ~n_total:64 specs in
  (* a cached answer is only ever replayed to requests for the solver
     that produced it *)
  Alcotest.(check bool) "solver distinguishes" true
    (base
    <> Hslb.Alloc_model.fingerprint ~solver:Engine.Solver_choice.Bnb
         ~objective:Hslb.Objective.Min_max ~n_total:64 specs);
  Alcotest.(check bool) "objective distinguishes" true
    (base <> fp ~objective:Hslb.Objective.Min_sum ~n_total:64 specs);
  Alcotest.(check bool) "n_total distinguishes" true
    (base <> fp ~objective:Hslb.Objective.Min_max ~n_total:65 specs);
  Alcotest.(check bool) "allowed None vs Some" true
    (base <> fp ~objective:Hslb.Objective.Min_max ~n_total:64 (with_allowed [ 1; 2; 4 ]));
  Alcotest.(check bool) "allowed lists distinguish" true
    (fp ~objective:Hslb.Objective.Min_max ~n_total:64 (with_allowed [ 1; 2; 4 ])
    <> fp ~objective:Hslb.Objective.Min_max ~n_total:64 (with_allowed [ 1; 2 ]));
  (* the model dedups and sorts allowed lists, so the key must too *)
  Alcotest.(check string) "allowed order canonicalized"
    (fp ~objective:Hslb.Objective.Min_max ~n_total:64 (with_allowed [ 4; 2; 1 ]))
    (fp ~objective:Hslb.Objective.Min_max ~n_total:64 (with_allowed [ 1; 2; 4; 2 ]));
  (* length-prefixed names: "ab"+"c" must not collide with "a"+"bc" *)
  let law = Scaling_law.make ~a:100. ~b:1e-6 ~c:0.9 ~d:1. in
  let named n = Hslb.Alloc_model.spec_of (fitted_of_law ~name:n ~count:1 law) in
  Alcotest.(check bool) "name boundaries" true
    (fp ~objective:Hslb.Objective.Min_max ~n_total:64 [ named "ab"; named "c" ]
    <> fp ~objective:Hslb.Objective.Min_max ~n_total:64 [ named "a"; named "bc" ])

(* The fingerprint is the cache key and the shard key: one ulp of a
   coefficient, one name byte, a count, a node bound or an allowed size
   must change it, and reordering or repeating allowed sizes (which the
   model normalizes away) must not *)
let prop_fingerprint_mutations =
  let open QCheck.Gen in
  let spec_gen =
    let* name = string_size (0 -- 6) in
    let* count = 1 -- 5 in
    let* n_min = 1 -- 8 in
    let* n_max = oneof [ return max_int; map (( + ) n_min) (0 -- 100) ] in
    (* any finite non-negative coefficient, subnormals and huge ones
       included *)
    let coef =
      oneof
        [
          return 0.;
          float_bound_inclusive 1e3;
          map (fun x -> if Float.is_finite x then Float.abs x else 1.) float;
        ]
    in
    let* a = coef and* b = coef and* c = coef and* d = coef in
    let law = { Scaling_law.a; b; c; d } in
    let+ allowed = opt (list_size (1 -- 6) (1 -- 64)) in
    {
      Hslb.Alloc_model.fc =
        {
          Hslb.Classes.cls = Hslb.Classes.make ~name ~count (fun ~nodes:_ -> 0.);
          fit = { Hslb.Fitting.law; r2 = 1.; rmse = 0.; observations = [||] };
        };
      n_min;
      n_max;
      allowed;
    }
  in
  QCheck.Test.make ~name:"fingerprint one-field mutations" ~count:2000
    (QCheck.make
       ~print:(fun (specs, c, m) ->
         Printf.sprintf "%d classes, class %d, mutation %d" (List.length specs) c m)
       (let* specs = list_size (1 -- 4) spec_gen in
        let* c = 0 -- (List.length specs - 1) in
        let+ m = 0 -- 8 in
        (specs, c, m)))
    (fun (specs, c, m) ->
      let fp =
        Hslb.Alloc_model.fingerprint ~solver:Engine.Solver_choice.Exact
          ~objective:Hslb.Objective.Min_max ~n_total:64
      in
      let with_law (s : Hslb.Alloc_model.spec) f =
        let fc = s.Hslb.Alloc_model.fc in
        { s with fc = { fc with fit = { fc.fit with law = f fc.fit.Hslb.Fitting.law } } }
      in
      let with_cls (s : Hslb.Alloc_model.spec) ~name ~count =
        { s with fc = { s.fc with cls = Hslb.Classes.make ~name ~count (fun ~nodes:_ -> 0.) } }
      in
      let mutate (s : Hslb.Alloc_model.spec) =
        let cls = s.Hslb.Alloc_model.fc.Hslb.Classes.cls in
        let name = cls.Hslb.Classes.name and count = cls.Hslb.Classes.count in
        match m with
        | 0 -> with_law s (fun l -> { l with Scaling_law.a = Float.succ l.Scaling_law.a })
        | 1 -> with_law s (fun l -> { l with Scaling_law.b = Float.succ l.Scaling_law.b })
        | 2 -> with_law s (fun l -> { l with Scaling_law.c = Float.succ l.Scaling_law.c })
        | 3 -> with_law s (fun l -> { l with Scaling_law.d = Float.succ l.Scaling_law.d })
        | 4 ->
          let name =
            if name = "" then "x"
            else
              String.mapi
                (fun i ch -> if i = 0 then Char.chr ((Char.code ch + 1) land 255) else ch)
                name
          in
          with_cls s ~name ~count
        | 5 -> with_cls s ~name ~count:(count + 1)
        | 6 -> { s with n_min = s.n_min + 1 }
        | 7 -> { s with n_max = (if s.n_max = max_int then s.n_max - 1 else s.n_max + 1) }
        | _ -> (
          match s.allowed with
          | None -> { s with allowed = Some [ 1 ] }
          | Some l -> { s with allowed = Some (List.fold_left max 0 l + 1 :: List.tl l) })
      in
      let mutated = List.mapi (fun i s -> if i = c then mutate s else s) specs in
      let shuffled =
        List.map
          (fun (s : Hslb.Alloc_model.spec) ->
            match s.allowed with
            | Some (v :: _ as l) -> { s with allowed = Some (List.rev l @ [ v ]) }
            | Some [] | None -> s)
          specs
      in
      fp specs <> fp mutated && fp specs = fp shuffled)

(* ---------- memoized solves ---------- *)

let test_cached_solve_identical () =
  let specs = e6_specs ~allowed:[ 1; 2; 4; 8; 16; 32 ] () in
  let n_total = 256 in
  let cache = Runtime.Cache.create () in
  (* oa, whose answer is stored on first sight (an exact one waits for
     its key to recur: test_cached_exact_on_recurrence) *)
  let solver = Engine.Solver_choice.Oa in
  let fresh =
    match Hslb.Alloc_model.solve ~solver ~n_total specs with
    | Ok a -> a
    | Error st -> Alcotest.failf "fresh failed: %s" (Minlp.Solution.status_to_string st)
  in
  let first =
    match Hslb.Alloc_model.solve ~solver ~cache ~n_total specs with
    | Ok a -> a
    | Error st -> Alcotest.failf "first failed: %s" (Minlp.Solution.status_to_string st)
  in
  let second =
    match Hslb.Alloc_model.solve ~solver ~cache ~n_total specs with
    | Ok a -> a
    | Error st -> Alcotest.failf "second failed: %s" (Minlp.Solution.status_to_string st)
  in
  Alcotest.(check int) "one miss" 1 (Runtime.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Runtime.Cache.hits cache);
  (* the hit replays the stored allocation itself *)
  Alcotest.(check bool) "hit returns the stored record" true (first == second);
  (* and that record is bit-for-bit what an uncached solve produces *)
  Alcotest.(check (array int)) "same nodes" fresh.Hslb.Alloc_model.nodes_per_task
    second.Hslb.Alloc_model.nodes_per_task;
  Alcotest.(check bool) "same makespan bits" true
    (Int64.equal
       (Int64.bits_of_float fresh.Hslb.Alloc_model.predicted_makespan)
       (Int64.bits_of_float second.Hslb.Alloc_model.predicted_makespan));
  Alcotest.(check bool) "optimal cached" true
    (second.Hslb.Alloc_model.status = Minlp.Solution.Optimal)

let test_cached_exact_on_recurrence () =
  (* an exact min-max answer costs about what storing it costs: it is
     stored on the second sight of its key and replayed from the third *)
  let specs = e6_specs ~allowed:[ 1; 2; 4; 8; 16; 32 ] () in
  let cache = Runtime.Cache.create () in
  let solve ?objective () =
    match Hslb.Alloc_model.solve ?objective ~cache ~n_total:256 specs with
    | Ok a -> a
    | Error st -> Alcotest.failf "solve failed: %s" (Minlp.Solution.status_to_string st)
  in
  let first = solve () in
  Alcotest.(check int) "first sight not stored" 0 (Runtime.Cache.length cache);
  let second = solve () in
  Alcotest.(check int) "second sight stored" 1 (Runtime.Cache.length cache);
  let third = solve () in
  Alcotest.(check bool) "third replays the stored record" true (third == second);
  Alcotest.(check (array int)) "same nodes" first.Hslb.Alloc_model.nodes_per_task
    third.Hslb.Alloc_model.nodes_per_task;
  Alcotest.(check int) "two misses" 2 (Runtime.Cache.misses cache);
  Alcotest.(check int) "one hit" 1 (Runtime.Cache.hits cache);
  (* the customized exact paths are stored at once, as before *)
  ignore (solve ~objective:Hslb.Objective.Min_sum () : Hslb.Alloc_model.allocation);
  Alcotest.(check int) "min-sum stored at once" 2 (Runtime.Cache.length cache)

let test_cache_skips_unproven () =
  (* budget-exhausted incumbents are timing luck; they must not be
     memoized as answers *)
  let specs = e6_specs ~allowed:[ 1; 2; 4; 8; 16; 32; 64; 128 ] () in
  let cache = Runtime.Cache.create () in
  let budget = Engine.Budget.arm (Engine.Budget.make ~deadline_s:0.001 ()) in
  (match
     Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Oa ~cache ~budget ~n_total:512 specs
   with
  | Ok a ->
    Alcotest.(check bool) "exhausted as expected" true
      (match a.Hslb.Alloc_model.status with
      | Minlp.Solution.Budget_exhausted _ -> true
      | _ -> false)
  | Error _ -> ());
  Alcotest.(check int) "nothing stored" 0 (Runtime.Cache.length cache)

(* ---------- cross-domain cancellation ---------- *)

let test_cross_domain_cancel () =
  (* park an NLP-based B&B in a long run: a sweet-spotted 10-class
     model, exactly the binary-heavy structure the NLP tree is known to
     stall on (E6b excludes it for that reason) — far beyond what the
     pre-cancel window can finish. Cancel from this domain and require a
     prompt Budget_exhausted return with the warm-start incumbent
     intact. *)
  let specs = e6_specs ~classes:10 ~allowed:[ 1; 2; 4; 8; 16; 32; 64; 128; 256 ] () in
  let n_total = 1280 in
  let token = Engine.Cancel.create () in
  (* the deadline is a safety net so a broken cancel path cannot hang
     the suite; a passing run never reaches it *)
  let budget = Engine.Budget.arm (Engine.Budget.make ~deadline_s:30. ~cancel:token ()) in
  let worker =
    Domain.spawn (fun () ->
        Hslb.Alloc_model.solve ~solver:Engine.Solver_choice.Bnb ~budget ~n_total specs)
  in
  Unix.sleepf 0.06;
  Engine.Cancel.cancel token;
  let t_cancel = Unix.gettimeofday () in
  let result = Domain.join worker in
  let react_s = Unix.gettimeofday () -. t_cancel in
  Alcotest.(check bool) "unwound promptly" true (react_s < 10.);
  match result with
  | Ok alloc ->
    (match alloc.Hslb.Alloc_model.status with
    | Minlp.Solution.Budget_exhausted Minlp.Solution.Cancelled -> ()
    | Minlp.Solution.Optimal -> Alcotest.fail "solve finished before the cancel landed"
    | st -> Alcotest.failf "unexpected status %s" (Minlp.Solution.status_to_string st));
    (* the incumbent survives: a real allocation within the node budget *)
    let used = ref 0 in
    List.iteri
      (fun i (s : Hslb.Alloc_model.spec) ->
        let n = alloc.Hslb.Alloc_model.nodes_per_task.(i) in
        Alcotest.(check bool) "at least one node" true (n >= 1);
        used := !used + (n * s.Hslb.Alloc_model.fc.Hslb.Classes.cls.Hslb.Classes.count))
      specs;
    Alcotest.(check bool) "within node budget" true (!used <= n_total);
    Alcotest.(check bool) "finite makespan" true
      (Float.is_finite alloc.Hslb.Alloc_model.predicted_makespan)
  | Error st ->
    Alcotest.failf "incumbent lost: %s" (Minlp.Solution.status_to_string st)

(* ---------- model store diagnostics ---------- *)

let test_model_store_line_numbers () =
  let text = "# name,count,a,b,c,d\n\ngood,2,10,0.001,0.9,1.5\nbad,line\n" in
  (match Hslb.Model_store.of_csv_result text with
  | Ok _ -> Alcotest.fail "malformed csv accepted"
  | Error msg ->
    Alcotest.(check bool) "names the line" true (contains_substring msg "line 4");
    Alcotest.(check bool) "quotes the content" true (contains_substring msg "bad,line");
    Alcotest.(check bool) "counts the fields" true (contains_substring msg "got 2"));
  (match Hslb.Model_store.of_csv_result "good,2,ten,0.001,0.9,1.5" with
  | Ok _ -> Alcotest.fail "non-numeric accepted"
  | Error msg ->
    Alcotest.(check bool) "line 1" true (contains_substring msg "line 1");
    Alcotest.(check bool) "blames the field" true (contains_substring msg "not a number"));
  (* the raising wrapper carries the same message *)
  (match Hslb.Model_store.of_csv "x,1,1,2,3" with
  | _ -> Alcotest.fail "of_csv accepted malformed input"
  | exception Failure msg ->
    Alcotest.(check bool) "wrapper message" true (contains_substring msg "line 1"));
  (* a clean file round-trips *)
  match Hslb.Model_store.of_csv_result "frag,3,200,1e-06,0.92,2.5\n" with
  | Error msg -> Alcotest.fail msg
  | Ok [ fc ] ->
    Alcotest.(check string) "name" "frag" fc.Hslb.Classes.cls.Hslb.Classes.name;
    Alcotest.(check int) "count" 3 fc.Hslb.Classes.cls.Hslb.Classes.count;
    check_float "a" 200. fc.Hslb.Classes.fit.Hslb.Fitting.law.Scaling_law.a;
    (match Hslb.Model_store.of_csv_result (Hslb.Model_store.to_csv [ fc ]) with
    | Ok [ fc' ] ->
      check_float "roundtrip c" fc.Hslb.Classes.fit.Hslb.Fitting.law.Scaling_law.c
        fc'.Hslb.Classes.fit.Hslb.Fitting.law.Scaling_law.c
    | Ok _ | Error _ -> Alcotest.fail "roundtrip failed")
  | Ok l -> Alcotest.failf "expected one class, got %d" (List.length l)

(* ---------- cache under contention ---------- *)

let test_cache_torture () =
  let capacity = 32 in
  let c = Runtime.Cache.create ~capacity () in
  let domains = 6 and iters = 400 in
  let value_of k = Hashtbl.hash k in
  (* 48 keys over 32 slots: constant eviction churn while every domain
     mixes hits, misses and inserts *)
  let body d () =
    let ok = ref true in
    for i = 0 to iters - 1 do
      let k = Printf.sprintf "k%d" ((i * (d + 1)) mod 48) in
      match Runtime.Cache.find c k with
      | Some v -> if v <> value_of k then ok := false
      | None -> Runtime.Cache.put c k (value_of k)
    done;
    !ok
  in
  let oks = Runtime.Pool.run ~jobs:domains (List.init domains body) in
  Alcotest.(check (list bool)) "every hit returned its key's value"
    (List.init domains (fun _ -> true))
    oks;
  Alcotest.(check int) "each find counted exactly once" (domains * iters)
    (Runtime.Cache.hits c + Runtime.Cache.misses c);
  Alcotest.(check bool) "hits occurred" true (Runtime.Cache.hits c > 0);
  Alcotest.(check bool) "misses occurred" true (Runtime.Cache.misses c > 0);
  (* LRU structural integrity after the stampede *)
  let keys = Runtime.Cache.keys_by_recency c in
  Alcotest.(check bool) "stayed bounded" true (Runtime.Cache.length c <= capacity);
  Alcotest.(check int) "recency list matches length" (Runtime.Cache.length c)
    (List.length keys);
  Alcotest.(check int) "recency list has no duplicates" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun k ->
      match Runtime.Cache.find c k with
      | Some v -> Alcotest.(check int) ("surviving entry " ^ k) (value_of k) v
      | None -> Alcotest.failf "key %s listed but not findable" k)
    keys

(* ---------- model store CSV escaping ---------- *)

let test_model_store_csv_escaping () =
  let with_name name =
    match Hslb.Model_store.of_csv_result "frag,3,200,1e-06,0.92,2.5\n" with
    | Ok [ fc ] ->
      { fc with Hslb.Classes.cls = { fc.Hslb.Classes.cls with Hslb.Classes.name } }
    | Ok _ | Error _ -> Alcotest.fail "base csv broken"
  in
  List.iter
    (fun name ->
      let fc = with_name name in
      match Hslb.Model_store.of_csv_result (Hslb.Model_store.to_csv [ fc ]) with
      | Ok [ fc' ] ->
        Alcotest.(check string)
          (Printf.sprintf "name %S round-trips" name)
          name fc'.Hslb.Classes.cls.Hslb.Classes.name
      | Ok _ -> Alcotest.fail "wrong class count after round-trip"
      | Error e -> Alcotest.failf "%S failed to re-parse: %s" name e)
    [
      "plain";
      "has,comma";
      " leading space";
      "trailing space ";
      {|embedded"quote|};
      {|",everything", at "once" |};
      "#looks-like-a-comment";
      "";
    ];
  (* a line-based format cannot represent newlines: reject at write time
     rather than silently corrupting the file *)
  List.iter
    (fun name ->
      match Hslb.Model_store.csv_name name with
      | _ -> Alcotest.failf "%S accepted despite newline" name
      | exception Invalid_argument _ -> ())
    [ "new\nline"; "carriage\rreturn" ]

let prop_csv_name_roundtrip =
  let char_gen =
    QCheck.Gen.(
      frequency
        [ (4, char_range 'a' 'z'); (3, oneofl [ ','; '"'; ' '; '#'; '.'; '-' ]) ])
  in
  let name_gen = QCheck.Gen.(string_size ~gen:char_gen (int_range 0 12)) in
  QCheck.Test.make ~name:"csv_name round-trips any newline-free name" ~count:300
    (QCheck.make name_gen ~print:(Printf.sprintf "%S"))
    (fun name ->
      let line = Hslb.Model_store.csv_name name ^ ",3,200,1e-06,0.92,2.5" in
      match Hslb.Model_store.of_csv_result line with
      | Ok [ fc ] -> fc.Hslb.Classes.cls.Hslb.Classes.name = name
      | Ok _ | Error _ -> false)

(* ---------- the decoder and the key against their old versions ---------- *)

(* one instance's alloc-v3 key, byte for byte: the cache key and the
   router's shard key, so any change to it moves every cached answer
   and every shard *)
let test_key_bytes_pinned () =
  let specs =
    match
      Serve.Protocol.resolve_specs
        {
          Serve.Protocol.model = `Inline "cold7-c0,3,63,0.0046,3.7,0.3\n\"a,b\",2,1e3,0,1.5,0.9";
          n_total = 16;
          objective = Hslb.Objective.Min_max;
          solver = None;
          deadline_ms = None;
          allowed = Some [ 8; 2; 4; 2 ];
          place = None;
        }
    with
    | Ok specs -> specs
    | Error e -> Alcotest.fail e
  in
  let key =
    Hslb.Alloc_model.fingerprint ~solver:Engine.Solver_choice.Exact
      ~objective:Hslb.Objective.Min_max ~n_total:16 specs
  in
  let hex =
    String.concat ""
      (List.init (String.length key) (fun i -> Printf.sprintf "%02x" (Char.code key.[i])))
  in
  Alcotest.(check string) "alloc-v3 key"
    (String.concat ""
       [
         (* alloc-v3|exact|min-max|16|2 *)
         "616c6c6f632d76337c65786163747c6d696e2d6d61787c31367c32";
         (* |8:cold7-c0,3,1,max_int, then a b c d as bits *)
         "7c383a636f6c64372d63302c332c312c343631313638363031383432373338373930332c";
         "0000000000804f404850fc1873d7723f9a99999999990d40333333333333d33f";
         (* a2a4a8 *)
         "613261346138";
         (* |3:a,b,2,1,max_int, then a b c d as bits, a2a4a8 *)
         "7c333a612c622c322c312c343631313638363031383432373338373930332c";
         "0000000000408f400000000000000000000000000000f83fcdccccccccccec3f";
         "613261346138";
       ])
    hex

(* a random model line, then byte-level damage to the text *)
let random_csv rng =
  let int = Numerics.Rng.int rng in
  let pick a = a.(int (Array.length a)) in
  let line () =
    let name =
      if int 8 > 0 then pick [| "alpha"; "b c"; "\"q,\"\"x\"\""; "\" pad \""; "" |]
      else pick [| "\"open"; "\"x\" y" |]
    in
    let num () =
      if int 8 > 0 then pick [| "100"; "0.001"; "1e-06"; " 2.5 "; "\" 3\""; "0x1p3"; "1_0" |]
      else pick [| "-1"; "nan"; "inf"; "1e400"; "ten"; "" |]
    in
    let count =
      if int 8 > 0 then pick [| "4"; " 2 "; "0x10"; "\"3\"" |] else pick [| "0"; "-3"; "x"; "" |]
    in
    let fields = [ name; count; num (); num (); num (); num () ] in
    let fields = match int 16 with 0 -> List.tl fields | 1 -> fields @ [ "7" ] | _ -> fields in
    String.concat (pick [| ","; ", "; " ,\t" |]) fields
  in
  let text =
    String.concat "\n"
      (List.init (1 + int 4) (fun _ -> pick [| line (); line (); line (); "# comment"; "  "; "" |]))
  in
  let n = String.length text in
  match int 4 with
  | 0 when n > 0 -> String.sub text 0 (int n)
  | 1 when n > 0 ->
    let b = Bytes.of_string text in
    Bytes.set b (int n) ",\"\n\r #.e1 ".[int 10];
    Bytes.to_string b
  | _ -> text

let show_decoded = function
  | Error msg -> "error " ^ msg
  | Ok fits ->
    String.concat "; "
      (List.map
         (fun (fc : Hslb.Classes.fitted) ->
           let law = fc.fit.Hslb.Fitting.law in
           Printf.sprintf "%S %d %h %h %h %h [%s]" fc.cls.Hslb.Classes.name fc.cls.count
             law.Scaling_law.a law.b law.c law.d
             (String.concat ";"
                (Array.to_list
                   (Array.map (fun (n, t) -> Printf.sprintf "%h,%h" n t) fc.fit.observations))))
         fits)

(* the in-place decoder answers every text as the splitting one did,
   diagnostics included, and the two-pass key writes the old key's
   bytes for every decoded instance under every solver and objective,
   with random boxes and allowed lists *)
let test_decode_matches_oracle () =
  let rng = Numerics.Rng.create 29 in
  let decoded = ref 0 in
  for i = 1 to 10_000 do
    let text = random_csv rng in
    let mine = Hslb.Model_store.of_csv_result text in
    let theirs = Decode_oracle.of_csv_result text in
    if show_decoded mine <> show_decoded theirs then
      Alcotest.failf "decode %S:\n new %s\n old %s" text (show_decoded mine) (show_decoded theirs);
    match mine with
    | Ok (_ :: _ as fits) ->
      incr decoded;
      let int = Numerics.Rng.int rng in
      let specs =
        List.map
          (fun fc ->
            let n_min = 1 + int 9 in
            Hslb.Alloc_model.spec_of ~n_min
              ~n_max:(if int 2 = 0 then max_int else n_min + int 1_000_000_000)
              ?allowed:
                (if int 2 = 0 then None else Some (List.init (1 + int 4) (fun _ -> 1 + int 99)))
              fc)
          fits
      in
      let solver = [| Engine.Solver_choice.Exact; Oa; Bnb; Oa_multi |].(i mod 4) in
      let objective = Hslb.Objective.[| Min_max; Max_min; Min_sum |].(i mod 3) in
      let n_total = if i mod 7 = 0 then -i else int max_int in
      let key = Hslb.Alloc_model.fingerprint ~solver ~objective ~n_total specs in
      if key <> Decode_oracle.fingerprint ~solver ~objective ~n_total specs then
        Alcotest.failf "key of %S differs: %S" text key
    | Ok [] | Error _ -> ()
  done;
  Alcotest.(check bool) (Printf.sprintf "texts decoded: %d" !decoded) true (!decoded > 800)

let () =
  Alcotest.run "runtime"
    [
      ( "config",
        [
          Alcotest.test_case "jobs clamp" `Quick test_config_clamps;
          Alcotest.test_case "parse" `Quick test_config_parse;
          Alcotest.test_case "from_env warns" `Quick test_config_from_env_warns;
        ] );
      ( "pool",
        [
          Alcotest.test_case "preserves order" `Quick test_pool_preserves_order;
          Alcotest.test_case "re-raises first exception" `Quick
            test_pool_reraises_first_exception;
          Alcotest.test_case "preserves backtraces" `Quick test_pool_preserves_backtraces;
          Alcotest.test_case "width policy" `Quick test_pool_decide;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru_eviction;
          Alcotest.test_case "refresh on put" `Quick test_cache_refresh_on_put;
          Alcotest.test_case "recurring put" `Quick test_cache_recurring_put;
          Alcotest.test_case "fingerprint injective" `Quick test_fingerprint_injective;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 23 |])
            prop_fingerprint_mutations;
          Alcotest.test_case "cached solve identical" `Quick test_cached_solve_identical;
          Alcotest.test_case "exact stored once it recurs" `Quick
            test_cached_exact_on_recurrence;
          Alcotest.test_case "unproven not stored" `Quick test_cache_skips_unproven;
          Alcotest.test_case "concurrent torture" `Quick test_cache_torture;
        ] );
      ( "cancellation",
        [
          Alcotest.test_case "cross-domain cancel" `Quick test_cross_domain_cancel;
        ] );
      ( "model store",
        [
          Alcotest.test_case "line-numbered errors" `Quick test_model_store_line_numbers;
          Alcotest.test_case "csv name escaping" `Quick test_model_store_csv_escaping;
          QCheck_alcotest.to_alcotest prop_csv_name_roundtrip;
          Alcotest.test_case "decode = old decode, key = old key" `Quick test_decode_matches_oracle;
          Alcotest.test_case "alloc-v3 key bytes pinned" `Quick test_key_bytes_pinned;
        ] );
    ]
