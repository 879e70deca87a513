(** Descriptive statistics and goodness-of-fit measures.

    Used to judge the quality of performance-model fits (the paper
    reports R² "very close to 1 for each component") and to summarize
    simulated timing distributions. *)

val mean : float array -> float

(** Sample variance (divides by [n-1]); [0.] when fewer than 2 points. *)
val variance : float array -> float

val stddev : float array -> float

(** [quantile q a] — linear-interpolation quantile, [q] in [0,1].
    Does not mutate [a]. Raises [Invalid_argument] on empty input. *)
val quantile : float -> float array -> float

val median : float array -> float

(** [r_squared ~observed ~predicted] — coefficient of determination
    [1 - SS_res/SS_tot]. When all observations are equal, returns [1.]
    if predictions match exactly and [0.] otherwise. *)
val r_squared : observed:float array -> predicted:float array -> float

(** Root-mean-square error between paired samples. *)
val rmse : observed:float array -> predicted:float array -> float
