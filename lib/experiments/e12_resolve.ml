(* E12 — the incremental re-solve frontier (beyond the paper's tables).

   The paper fits once and solves once; E12 asks what a long-lived
   balancer should do when the coefficients drift. Each round brings
   every law up to date with that round's samples (Fitting.update), and
   three policies run against the same drifting ground truth: always
   re-solve, never re-solve, and adopt the exact optimum only when the
   incumbent is more than ε above it (the serve layer's `resolve` op). The
   interesting cell is certified-at-low-drift: nearly the makespan of
   always, on a fraction of the allocation changes. The solves column
   counts allocations adopted, the initial one included. *)

let name = "E12_resolve"
let describes = "Re-solve policy frontier: always / never / eps-certified under drift"

let run ?(quick = false) fmt =
  let t = Resolve_frontier.run ~quick ~seed:42 () in
  let header = [ "drift"; "policy"; "true makespan"; "solves"; "skipped" ] in
  let rows =
    List.concat_map
      (fun (r : Resolve_frontier.row) ->
        List.map
          (fun (c : Resolve_frontier.cell) ->
            [
              Printf.sprintf "%.3f" r.Resolve_frontier.drift_rate;
              c.Resolve_frontier.policy;
              Printf.sprintf "%.3f" c.Resolve_frontier.makespan_avg;
              string_of_int c.Resolve_frontier.solves;
              string_of_int c.Resolve_frontier.skipped;
            ])
          r.Resolve_frontier.cells)
      t.Resolve_frontier.rows
  in
  Table.print fmt
    ~title:
      (Printf.sprintf "E12: re-solve policies, %d rounds, eps=%.2f (seed 42)"
         t.Resolve_frontier.rounds t.Resolve_frontier.epsilon)
    ~header rows;
  Format.fprintf fmt
    "expected shape: never decays as drift grows; certified stays within eps of always while \
     keeping its incumbent most rounds at low drift@."
