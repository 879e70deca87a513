(* Traced fmo runs: spans kept in memory, self times computed from
   them, written out as one Chrome trace when the run ends.

   The benchmark opens its own Obs.Span scopes around each call into a
   layer, so the program's existing engine.phase spans nest under
   them. *)

(* Self time: a span's duration minus the part of it its children
   cover (children are clipped to the parent and their union taken, so
   overlapping children are not subtracted twice). *)
let self_times (spans : Obs.Span.t list) =
  let kids = Hashtbl.create (List.length spans) in
  List.iter
    (fun (s : Obs.Span.t) ->
      match s.parent with Some p -> Hashtbl.add kids p s | None -> ())
    spans;
  List.map
    (fun (s : Obs.Span.t) ->
      let lo = s.start_s and hi = s.start_s +. s.dur_s in
      let iv =
        Hashtbl.find_all kids s.id
        |> List.filter_map (fun (c : Obs.Span.t) ->
               let a = Float.max lo c.start_s and b = Float.min hi (c.start_s +. c.dur_s) in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = Float.max a reach in
            if b > a then (acc +. (b -. a), b) else (acc, reach))
          (0., neg_infinity) iv
      in
      (s, s.dur_s -. covered))
    spans

(* total self time of the spans called [name] *)
let self_total selfs name =
  List.fold_left
    (fun acc ((s : Obs.Span.t), self) -> if s.name = name then acc +. self else acc)
    0. selfs

let total_dur (spans : Obs.Span.t list) name =
  List.fold_left
    (fun acc (s : Obs.Span.t) -> if s.name = name then acc +. s.dur_s else acc)
    0. spans

(* The trace of the last traced run of [workload], overwritten each
   time *)
let write ~workload spans =
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf ".perfbench/trace-%s.json" workload in
  Obs.Export.write_chrome_trace path spans;
  Printf.sprintf "trace: %s, %d spans" path (List.length spans)
