type t = { name : string; count : int; sample : nodes:int -> float }
type fitted = { cls : t; fit : Fitting.fit }

let make ~name ~count sample =
  if count < 1 then invalid_arg "Classes.make: count must be >= 1";
  { name; count; sample }

let gather cls ~sizes ~reps =
  if sizes = [] then invalid_arg "Classes.gather: no sizes";
  if reps < 1 then invalid_arg "Classes.gather: reps must be >= 1";
  let obs = ref [] in
  List.iter
    (fun n ->
      if n < 1 then invalid_arg "Classes.gather: node count must be >= 1";
      for _ = 1 to reps do
        obs := (float_of_int n, cls.sample ~nodes:n) :: !obs
      done)
    sizes;
  Array.of_list (List.rev !obs)

let gather_and_fit ~sizes ~reps classes =
  List.map (fun cls -> { cls; fit = Fitting.fit_observations (gather cls ~sizes ~reps) }) classes

let predicted_time fc n = Fitting.predict fc.fit n
