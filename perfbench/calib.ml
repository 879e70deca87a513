(* Host speed. On the shared 2-vCPU host the benchmark was built on,
   identical work in one process ran at one speed for minutes, then
   ~1.8x slower for minutes, with no steal time and no scheduling delay
   the guest could see: register-bound code slowed as much as the
   solvers did. The medians of 30-40 s windows of fmo plan ops taken
   across such a change spread (interquartile range over median)
   0.44-0.52, and no statistic a run takes over its own ops removes a
   change that outlasts the run.

   So a run times this fixed kernel between its ops and reports every
   time metric at a fixed reference speed: the time of the work between
   two samples is multiplied by [between] = ref_s / (the two samples'
   mean), and set-up time by [scale] = ref_s / (the run's median
   sample). The kernel never calls the program, so a change to the
   program cannot move it. Across the same change, the windows' plan
   times scaled by the kernel's median in each window spread 0.08-0.09,
   and the slow stretch read within 20% of the fast one. *)

(* The reference: the kernel's time on that host when it ran fast. *)
let ref_s = 0.1

(* a dependent integer chain: latency-bound, like the solvers' control
   flow *)
let chain n =
  let x = ref 88172645463325252 in
  for _ = 1 to n do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17)
  done;
  !x

module M = Map.Make (Int)

(* a search frontier of at most 2000 entries in a Map: allocation on the
   minor heap, pointer chasing and compares, like a B&B node queue *)
let frontier n =
  let q = ref M.empty and size = ref 0 and s = ref 1 in
  for i = 1 to n do
    s := ((!s * 1103515245) + 12345) land 0xFFFFFF;
    if not (M.mem !s !q) then incr size;
    q := M.add !s (float_of_int i, [| float_of_int !s |]) !q;
    if !size > 2000 then begin
      q := M.remove (fst (M.min_binding !q)) !q;
      decr size
    end
  done;
  !s + !size

(* ~0.1 s at the reference speed; the result pins the work done *)
let kernel () = chain 10_000_000 lxor frontier 100_000

type t = Stats.Buf.t

(* The first call is not recorded: it warms the caches and the minor
   heap, and on a served run it absorbs what the backend still does
   after set-up (one such first sample read 2.2x the rest). *)
let create () =
  ignore (Sys.opaque_identity (kernel ()));
  Stats.Buf.create ()

let sample (t : t) =
  let t0 = Obs.Clock.now_s () in
  ignore (Sys.opaque_identity (kernel ()));
  Stats.Buf.push t (Obs.Clock.now_s () -. t0)

let scale (t : t) = ref_s /. Stats.median (Stats.Buf.to_array t)

(* the factor for the work done between samples [k] and [k + 1] *)
let between (t : t) k =
  let xs = Stats.Buf.to_array t in
  ref_s /. ((xs.(k) +. xs.(k + 1)) /. 2.)

let note (t : t) =
  let xs = Stats.Buf.to_array t in
  Printf.sprintf
    "host speed: calibration kernel median %.1f ms over %d samples (%s ms, in order); run factor %.4f to the %.0f ms reference"
    (Stats.median xs *. 1000.)
    (Array.length xs)
    (String.concat " " (Array.to_list (Array.map (fun x -> Printf.sprintf "%.1f" (x *. 1000.)) xs)))
    (scale t) (ref_s *. 1000.)
