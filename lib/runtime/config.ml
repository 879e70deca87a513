let env_var = "HSLB_JOBS"

let parse s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some _ | None ->
    Error (Printf.sprintf "invalid jobs value %S (expected a positive integer)" s)

(* An invalid HSLB_JOBS used to be silently coerced to 1; now the same
   [parse] the CLI's --jobs flag uses reports it, so the two paths name
   the bad value identically and a typo'd environment never passes
   unnoticed. *)
let from_env ?(warn = fun msg -> Printf.eprintf "warning: %s\n%!" msg) () =
  match Sys.getenv_opt env_var with
  | Some s -> (
    match parse s with
    | Ok n -> n
    | Error msg ->
      warn (Printf.sprintf "%s: %s; defaulting to 1 job" env_var msg);
      1)
  | None -> 1

(* atomic: the CLI sets it once at startup, but pool workers in other
   domains read it when sizing nested fan-outs *)
let current = Atomic.make (from_env ())
let jobs () = Atomic.get current
let set_jobs n = Atomic.set current (Stdlib.max 1 n)
let recommended () = Stdlib.max 1 (Domain.recommended_domain_count () - 1)

(* cores the runtime can actually use; the pool clamps its width here
   so an oversubscribed --jobs never time-slices domains on a small box *)
let cores () = Stdlib.max 1 (Domain.recommended_domain_count ())
