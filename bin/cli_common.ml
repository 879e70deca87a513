(* Shared command-line plumbing for the hslb CLI and the benchmark
   harness: cmdliner converters and arguments, the audit verdict
   format both print, and bench/main.exe's argv scan ([Argv]). *)

open Cmdliner

(* ---------- cmdliner converters ---------- *)

let objective_conv =
  let parse = function
    | "min-max" -> Ok Hslb.Objective.Min_max
    | "max-min" -> Ok Hslb.Objective.Max_min
    | "min-sum" -> Ok Hslb.Objective.Min_sum
    | s -> Error (`Msg ("unknown objective: " ^ s))
  in
  Arg.conv (parse, fun fmt o -> Format.pp_print_string fmt (Hslb.Objective.to_string o))

let solver_conv =
  let parse s =
    match Engine.Solver_choice.of_string s with
    | Ok v -> Ok v
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Engine.Solver_choice.pp)

(* the same validation the HSLB_JOBS environment path goes through
   (Runtime.Config.parse), so "--jobs 8x" and "HSLB_JOBS=8x" report the
   bad value with identical wording *)
let jobs_conv =
  let parse s =
    match Runtime.Config.parse s with Ok n -> Ok n | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Format.pp_print_int)

let addr_conv =
  let parse s =
    match Serve.Transport_socket.addr_of_string s with
    | Ok a -> Ok a
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt a -> Format.pp_print_string fmt (Serve.Transport_socket.addr_to_string a) )

(* ---------- shared argument definitions ---------- *)

let deadline_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget in milliseconds; on exhaustion the best incumbent found so far \
           is reported with a budget-exhausted status.")

let max_nodes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N" ~doc:"Budget on branch-and-bound nodes across the run.")

let report_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "report" ] ~docv:"FILE"
        ~doc:"Write a structured JSON run report (status, counters, phase timers) to FILE.")

let audit_arg =
  Arg.(
    value
    & flag
    & info [ "audit" ]
        ~doc:
          "Re-verify the solver's certificate with the independent auditor (witness \
           feasibility, objective and bound consistency, gap evidence) and print the \
           verdict. A rejected certificate makes the command exit non-zero.")

(* ---------- serving flags ----------
   serve, route and loadgen all accept these; defining them once means
   "--jobs", "--queue-limit" and friends parse — and reject bad values —
   identically across the three commands *)

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains solving requests (default: $(b,HSLB_JOBS) from the \
           environment, else 1). The transport runs on its own domain either way.")

let queue_limit_arg =
  Arg.(
    value
    & opt int 64
    & info [ "queue-limit" ] ~docv:"N"
        ~doc:
          "Admission high-water mark: requests arriving while N are already queued are \
           rejected immediately with outcome $(b,overloaded) instead of queueing \
           unboundedly.")

let cache_capacity_arg =
  Arg.(
    value
    & opt int 128
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"LRU solve-cache entries (proven-optimal allocations only).")

let drain_grace_ms_arg =
  Arg.(
    value
    & opt float 2000.
    & info [ "drain-grace-ms" ] ~docv:"MS"
        ~doc:
          "On drain (SIGTERM, EOF, or the drain op), in-flight and queued solves get \
           this long to finish before the shared cancel token budget-cancels them; \
           they still answer with their best incumbent.")

let arm_budget deadline_ms max_nodes =
  let deadline_s = Option.map (fun ms -> ms /. 1000.) deadline_ms in
  Engine.Budget.arm (Engine.Budget.make ?deadline_s ?max_nodes ())

(* ---------- auditing ---------- *)

(* one verdict format everywhere: `Ok line` to print, `Error line` to
   print before exiting non-zero. [check] is the auditor's check for
   the certificate's space. *)
let audit_with check (cert : Engine.Certificate.t option) =
  match cert with
  | None -> Error "audit: no certificate emitted"
  | Some cert -> (
    let producer = cert.Engine.Certificate.producer in
    match check cert with
    | Ok () when Audit.optimality_checked cert ->
      Ok
        (Printf.sprintf "audit: certificate verified (%s, %s)" producer
           (Engine.Certificate.evidence_to_string cert.Engine.Certificate.evidence))
    | Ok () ->
      Ok
        (Printf.sprintf
           "audit: exact-method certificate (%s): witness and objective verified, optimality \
            not re-checked"
           producer)
    | Error _ as verdict ->
      Error (Printf.sprintf "audit: certificate REJECTED: %s" (Audit.summary verdict)))

let audit_outcome_string = function Ok s -> s | Error s -> s

(* ---------- the benchmark executable's command line ---------- *)

(* bench/main.exe hand-rolls its argv scan; this keeps its flag
   spellings identical to the cmdliner ones and rejects what it does
   not accept instead of ignoring it *)
module Argv = struct
  let switches = [ "quick"; "audit" ]

  (* value-taking options and their metavariables; "N" is an integer *)
  let options =
    [
      ("only", "ID");
      ("report", "FILE");
      ("trace", "FILE");
      ("jobs", "N");
      ("seed", "N");
      ("trials", "N");
      ("runtime", "FILE");
      ("kernels", "FILE");
      ("obs-bench", "FILE");
      ("resolve", "FILE");
      ("place", "FILE");
    ]

  let accepted =
    String.concat ", "
      (List.map (( ^ ) "--") switches
      @ List.map (fun (o, v) -> Printf.sprintf "--%s %s" o v) options)

  (* [parse args] (program name excluded) — each given switch and option
     with its value; [Error] names the first malformed flag *)
  let parse args =
    let dashed s = String.starts_with ~prefix:"--" s in
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | arg :: rest -> (
        let n = if dashed arg then String.sub arg 2 (String.length arg - 2) else "" in
        match (List.mem n switches, List.assoc_opt n options, rest) with
        | true, _, _ -> go ((n, "") :: acc) rest
        | false, Some docv, v :: rest when not (dashed v) ->
          if docv = "N" && int_of_string_opt v = None then
            Error (Printf.sprintf "--%s: expected an integer, got %S" n v)
          else go ((n, v) :: acc) rest
        | false, Some docv, _ -> Error (Printf.sprintf "--%s: missing %s" n docv)
        | false, None, _ ->
          Error (Printf.sprintf "unknown argument %S (accepted: %s)" arg accepted))
    in
    go [] args

  let flag parsed name = List.mem_assoc name parsed
  let find_opt parsed name = List.assoc_opt name parsed
  let int_opt parsed name = Option.map int_of_string (find_opt parsed name)
end
