(* Lock-free primitives: every update path is a handful of atomic
   operations so pool workers and serve domains can hammer the same
   metric concurrently. Floats go through CAS retry loops. *)

let rec atomic_add_float a x =
  let cur = Atomic.get a in
  if not (Atomic.compare_and_set a cur (cur +. x)) then atomic_add_float a x

let rec atomic_min_float a x =
  let cur = Atomic.get a in
  if x < cur && not (Atomic.compare_and_set a cur x) then atomic_min_float a x

let rec atomic_max_float a x =
  let cur = Atomic.get a in
  if x > cur && not (Atomic.compare_and_set a cur x) then atomic_max_float a x

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let create name = { name; v = Atomic.make 0 }
  let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c.v by)
  let value c = Atomic.get c.v
  let name c = c.name
end

module Gauge = struct
  type t = { name : string; v : float Atomic.t }

  let create name = { name; v = Atomic.make 0. }
  let set g x = Atomic.set g.v x
  let add g x = atomic_add_float g.v x
  let value g = Atomic.get g.v
  let name g = g.name
end

module Histogram = struct
  type t = {
    name : string;
    bounds : float array;
        (* ascending bucket upper bounds; one extra overflow bucket
           follows the last bound *)
    buckets : int Atomic.t array;
    total : int Atomic.t;
    sum : float Atomic.t;
    min_v : float Atomic.t;
    max_v : float Atomic.t;
  }

  type summary = {
    count : int;
    sum : float;
    min : float;
    max : float;
    p50 : float;
    p90 : float;
    p99 : float;
  }

  (* Log-linear bucketing: [per_decade] geometrically spaced bounds per
     decade from [lo] to at least [hi]. Relative quantile error is
     bounded by one bucket width (~10^(1/per_decade)). *)
  let create ?(lo = 1e-6) ?(hi = 1e4) ?(per_decade = 10) name =
    if not (lo > 0. && hi > lo) then
      invalid_arg "Histogram.create: need 0 < lo < hi";
    if per_decade < 1 then invalid_arg "Histogram.create: per_decade < 1";
    let step = 10. ** (1. /. float_of_int per_decade) in
    let rec build acc b = if b >= hi then List.rev (b :: acc) else build (b :: acc) (b *. step) in
    let bounds = Array.of_list (build [] lo) in
    {
      name;
      bounds;
      buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
      total = Atomic.make 0;
      sum = Atomic.make 0.;
      min_v = Atomic.make infinity;
      max_v = Atomic.make neg_infinity;
    }

  (* first bucket whose upper bound admits [x]; the overflow bucket
     when [x] exceeds every bound *)
  let bucket_index h x =
    let n = Array.length h.bounds in
    if x > h.bounds.(n - 1) then n
    else begin
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if x <= h.bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let observe h x =
    if Float.is_nan x then ()
    else begin
      ignore (Atomic.fetch_and_add h.buckets.(bucket_index h x) 1);
      ignore (Atomic.fetch_and_add h.total 1);
      atomic_add_float h.sum x;
      atomic_min_float h.min_v x;
      atomic_max_float h.max_v x
    end

  let count h = Atomic.get h.total
  let name h = h.name

  let summary h =
    let count = Atomic.get h.total in
    if count = 0 then
      { count = 0; sum = 0.; min = nan; max = nan; p50 = nan; p90 = nan; p99 = nan }
    else begin
      let min_v = Atomic.get h.min_v and max_v = Atomic.get h.max_v in
      (* quantile = upper bound of the first bucket whose cumulative
         count reaches ceil(q·n), clamped to the observed range *)
      let quantile q =
        let target = max 1 (int_of_float (ceil (q *. float_of_int count))) in
        let n = Array.length h.buckets in
        let rec walk i cum =
          if i >= n then max_v
          else
            let cum = cum + Atomic.get h.buckets.(i) in
            if cum >= target then
              if i < Array.length h.bounds then h.bounds.(i) else max_v
            else walk (i + 1) cum
        in
        Float.max min_v (Float.min max_v (walk 0 0))
      in
      {
        count;
        sum = Atomic.get h.sum;
        min = min_v;
        max = max_v;
        p50 = quantile 0.5;
        p90 = quantile 0.9;
        p99 = quantile 0.99;
      }
    end

  (* NaN quantiles of an empty histogram render as JSON null *)
  let summary_json (s : summary) =
    Json.Obj
      [
        ("count", Json.Num (float_of_int s.count));
        ("p50", Json.Num s.p50);
        ("p90", Json.Num s.p90);
        ("p99", Json.Num s.p99);
        ("max", Json.Num s.max);
      ]
end

type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t

(* ---------- process-wide registry ---------- *)

let reg_lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let get_or_create name mk classify =
  Mutex.lock reg_lock;
  let r =
    match Hashtbl.find_opt registry name with
    | Some m -> classify m
    | None ->
      let m = mk () in
      Hashtbl.add registry name m;
      classify m
  in
  Mutex.unlock reg_lock;
  match r with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S already registered with another type" name)

let counter name =
  get_or_create name
    (fun () -> Counter (Counter.create name))
    (function Counter c -> Some c | _ -> None)

let gauge name =
  get_or_create name
    (fun () -> Gauge (Gauge.create name))
    (function Gauge g -> Some g | _ -> None)

let histogram ?lo ?hi ?per_decade name =
  get_or_create name
    (fun () -> Histogram (Histogram.create ?lo ?hi ?per_decade name))
    (function Histogram h -> Some h | _ -> None)

let snapshot () =
  Mutex.lock reg_lock;
  let all = Hashtbl.fold (fun k v acc -> (k, v) :: acc) registry [] in
  Mutex.unlock reg_lock;
  List.sort (fun (a, _) (b, _) -> String.compare a b) all
