(* The benchmark's own tests: `main.exe --self-test` (run.py --self-test).
   They check the parts of the benchmark a wrong number would come
   from: the percentile routine, input generation, the calibration
   kernel's work, and the per-op correctness check together with the
   count of failed ops. *)

module J = Obs.Json

let failures = ref 0

let expect name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* the definition, computed without sorting: the smallest sample v
   with count(x <= v) * 100 >= pct * n *)
let reference_percentile xs pct =
  let n = Array.length xs in
  Array.fold_left
    (fun best v ->
      let le = Array.fold_left (fun c x -> if x <= v then c + 1 else c) 0 xs in
      if le * 100 >= pct * n && v < best then v else best)
    infinity xs

let percentiles () =
  expect "p50 of 5,1,4,2,3 is 3" (Stats.percentile [| 5.; 1.; 4.; 2.; 3. |] 50 = 3.);
  expect "p99 of 5 samples is the max" (Stats.percentile [| 5.; 1.; 4.; 2.; 3. |] 99 = 5.);
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  expect "p50 of 1..100 is 50" (Stats.percentile hundred 50 = 50.);
  expect "p99 of 1..100 is 99" (Stats.percentile hundred 99 = 99.);
  let thousand = Array.init 1000 (fun i -> float_of_int ((i * 7919) mod 1000)) in
  expect "p99 of 0..999 is 989, ten samples above it" (Stats.percentile thousand 99 = 989.);
  let agree = ref true in
  for n = 1 to 300 do
    let g = Gen.stream ~seed:n ~stream:"selftest-percentile" ~index:n in
    (* few distinct values, so ties are common *)
    let xs = Array.init n (fun _ -> float_of_int (Gen.int g 37)) in
    List.iter
      (fun pct -> if Stats.percentile xs pct <> reference_percentile xs pct then agree := false)
      [ 1; 25; 50; 90; 99; 100 ]
  done;
  expect "percentile matches the definition on 300 sample sets" !agree

let digests () =
  List.iter
    (fun (name, d) ->
      expect (name ^ ": same seed, same inputs") (d 42 = d 42);
      expect (name ^ ": another seed, other inputs") (d 42 <> d 43))
    [
      ("fmo", fun seed -> Fmo_wl.digest ~seed (Gen.fmo_instances ~seed));
      ("serve_cold", fun seed -> Serve_wl.digest ~seed (Serve_wl.cold ~seed));
      ("serve_hot", fun seed -> Serve_wl.digest ~seed (Serve_wl.hot ~seed));
    ];
  expect "fmo: every run plans the whole corpus"
    (List.sort compare (List.map (fun i -> i.Gen.gather_seed) (Gen.fmo_instances ~seed:3))
    = Gen.fmo_corpus)

(* a genuine answer from an in-process server, then doctored copies *)
let served_replies () =
  let wl = Serve_wl.cold ~seed:9 in
  let inst_a = Serve_wl.instance wl 0 and inst_b = Serve_wl.instance wl 1 in
  let srv =
    Serve.Server.create { (Serve.Server.default_config ()) with Serve.Server.jobs = 1 } ~emit:ignore
  in
  let answer line =
    let got = ref None in
    let m = Mutex.create () in
    Serve.Server.submit srv line ~reply:(fun l ->
        Mutex.lock m;
        got := Some l;
        Mutex.unlock m);
    let rec wait () =
      Mutex.lock m;
      let g = !got in
      Mutex.unlock m;
      match g with
      | Some l -> l
      | None ->
        Unix.sleepf 0.001;
        wait ()
    in
    wait ()
  in
  let line_a = answer (Gen.request_line ~id:0 inst_a) in
  let line_b = answer (Gen.request_line ~id:1 inst_b) in
  ignore (Serve.Server.await_drain srv);
  let reply_a = Result.get_ok (J.parse line_a) in
  let reply_b = Result.get_ok (J.parse line_b) in
  let set k v = function
    | J.Obj fs -> J.Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fs)
    | v -> v
  in
  let is_ok = function Ok _ -> true | Error _ -> false in
  expect "genuine reply passes" (is_ok (Check.served_reply inst_a reply_a));
  let makespan = Option.get (Option.bind (J.member "makespan" reply_a) J.num) in
  expect "wrong makespan fails"
    (not (is_ok (Check.served_reply inst_a (set "makespan" (J.Num (makespan *. (1. +. 1e-6))) reply_a))));
  expect "reply for another instance fails" (not (is_ok (Check.served_reply inst_a reply_b)));
  expect "over-budget allocation fails"
    (not
       (is_ok
          (Check.served_reply inst_a
             (set "nodes_per_task" (J.Arr [ J.Num 16.; J.Num 16.; J.Num 16. ]) reply_a))));
  expect "rejected audit fails"
    (not (is_ok (Check.served_reply inst_a (set "audit" (J.Str "REJECTED: x") reply_a))));
  expect "error outcome fails"
    (not (is_ok (Check.served_reply inst_a (set "outcome" (J.Str "error") reply_a))));
  (* through the run's own counting: op 0 answered correctly, op 1
     answered with op 0's allocation under op 1's id, op 2 never *)
  let answers = Buffer.create 1024 in
  let doctored = J.to_string (set "id" (J.Num 1.) reply_a) in
  Buffer.add_string answers line_a;
  Buffer.add_string answers doctored;
  let window =
    {
      Serve_wl.sent = 3;
      t_submit = [| 0.; 0.; 0. |];
      in_submit_s = [| 0.; 0.; 0. |];
      chunks = [| answers |];
      answer_chunk = [| 0.; 0. |];
      answer_end =
        [| float_of_int (String.length line_a); float_of_int (Buffer.length answers) |];
      answer_at = [| 0.01; 0.02 |];
      gc_alloc_mb = 0.;
      gc_majors = 0.;
    }
  in
  let ops, fails = Serve_wl.results wl window in
  expect "a doctored and a missing answer count as two failed ops"
    (List.length ops = 2 && List.length fails = 2)

(* Every time metric is scaled by this kernel's time, so its work must
   not change: a different kernel would put every figure on another
   scale and make runs before and after it incomparable. *)
let calibration () =
  expect "calibration kernel does its fixed work" (Calib.kernel () = 1053263917861813145)

let run () =
  percentiles ();
  digests ();
  calibration ();
  served_replies ();
  Printf.printf "%d failed\n" !failures;
  if !failures = 0 then 0 else 1
