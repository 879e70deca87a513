(* Exact quantiles over raw per-op samples. The program's live
   histograms (Obs.Metrics.Histogram, the stats op's latency object)
   report log-bucket upper bounds, up to ~26% high, so none of the
   benchmark's figures come from them. *)

(* Nearest rank: the smallest sample with at least [pct]% of the
   samples at or below it. [pct] is a whole percent so the rank is
   computed in integers, without float rounding at the boundary. *)
let percentile samples pct =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  if pct < 1 || pct > 100 then invalid_arg "Stats.percentile: pct must be in 1..100";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  sorted.((((pct * n) + 99) / 100) - 1)

let median samples = percentile samples 50

let mean samples =
  if Array.length samples = 0 then invalid_arg "Stats.mean: no samples";
  Array.fold_left ( +. ) 0. samples /. float_of_int (Array.length samples)

(* A growable float buffer: per-op samples are appended on the hot path
   without allocating a list cell each. *)
module Buf = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0. in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end
