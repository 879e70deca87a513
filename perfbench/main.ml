(* perfbench: the repository's benchmark. Run it through run.py, which
   builds this executable and the hslb CLI first:

     python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 50 --trace 0

   prints a report, then one JSON result line. See README.md. *)

let workloads = [ "fmo_water32_n512"; "serve_cold"; "serve_hot" ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 40. and trace = ref 0 in
  let self_test = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N seed the inputs are generated from");
      ("--seconds", Arg.Set_float seconds, "S length of the timed window");
      ("--trace", Arg.Set_int trace, "0|1 1: traced run, per-layer metrics");
      ("--self-test", Arg.Set self_test, " run the benchmark's own tests");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !self_test then exit (Selftest.run ());
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload ^ "\n" ^ Arg.usage_string spec usage);
    exit 2
  end;
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline ("perfbench: bad --seconds or --trace\n" ^ Arg.usage_string spec usage);
    exit 2
  end;
  let seed = !seed and seconds = !seconds and traced = !trace = 1 in
  match
    match !workload with
    | "fmo_water32_n512" -> Fmo_wl.run ~seed ~seconds ~traced
    | "serve_cold" -> Serve_wl.run (Serve_wl.cold ~seed) ~seed ~seconds ~traced
    | _ -> Serve_wl.run (Serve_wl.hot ~seed) ~seed ~seconds ~traced
  with
  | report -> Report.print report
  | exception e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
