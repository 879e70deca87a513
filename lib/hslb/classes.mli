(** Task classes and HSLB step 1 ("Gather").

    A class is a set of interchangeable coarse tasks (fragments of equal
    basis size, or one CESM component) sharing a scaling curve. The
    gather step benchmarks a representative of each class at several
    group sizes; the decision layer works entirely on classes. *)

type t = {
  name : string;
  count : int;  (** number of tasks in the class *)
  sample : nodes:int -> float;  (** run one benchmark (noisy) *)
}

type fitted = {
  cls : t;
  fit : Fitting.fit;
}

(** [make ~name ~count sample] — define a class. [count >= 1]. *)
val make : name:string -> count:int -> (nodes:int -> float) -> t

(** [gather cls ~sizes ~reps] — benchmark [cls] at each size in
    [sizes], [reps] repetitions each, returning (nodes, seconds)
    observations. *)
val gather : t -> sizes:int list -> reps:int -> (float * float) array

(** [gather_and_fit ~sizes ~reps classes] — steps 1+2 of HSLB for
    every class. *)
val gather_and_fit : sizes:int list -> reps:int -> t list -> fitted list

(** [predicted_time fc n] — fitted time of one task of the class on [n]
    nodes. *)
val predicted_time : fitted -> int -> float
