(** Solver run budgets: wall-clock deadlines, node / iteration limits
    and cooperative cancellation.

    A {!t} is an immutable specification. Arming it ({!arm}) starts the
    wall clock and creates the mutable counters that every solver layer
    shares: the MINLP branch-and-bound bumps the node counter, the LP
    simplex and the NLP line searches bump the iteration counter, and
    all inner loops poll {!check}. Because one armed budget is threaded
    through the whole solver stack (OA master -> MILP -> simplex;
    B&B -> augmented Lagrangian -> SPG), a deadline covers the entire
    run, not each sub-solve separately. *)

type reason =
  | Deadline  (** wall-clock limit elapsed *)
  | Node_limit  (** branch-and-bound node limit reached *)
  | Iter_limit  (** pivot / NLP-iteration limit reached *)
  | Cancelled  (** the {!Cancel.t} token was triggered *)

val reason_to_string : reason -> string

type t

(** [make ()] with no arguments is an unlimited budget. [deadline_s] is
    in seconds, measured from the moment the budget is armed.

    [poll_fuse (k, r)] is the fault-injection hook used by the audit
    stress harness ([Audit.Stress]): the [k]-th call to {!check} (and
    every later one) reports [Some r], deterministically and without
    any wall-clock dependence. Because the fuse trips {e at} a poll, a
    solver that stopped polling before the fuse fired was never stopped
    — so "fuse tripped and the solver still claimed a proven status" is
    an exact, false-positive-free soundness violation.
    @raise Invalid_argument when [k < 1]. *)
val make :
  ?deadline_s:float ->
  ?max_nodes:int ->
  ?max_iters:int ->
  ?cancel:Cancel.t ->
  ?poll_fuse:int * reason ->
  unit ->
  t

val unlimited : t

(** A running budget: wall clock started, counters at zero. *)
type armed

(** Start the clock. Each [arm] is independent; arming the same spec
    twice gives two independent runs. Counters are atomic, so one armed
    budget may be polled and charged from several domains at once. *)
val arm : t -> armed

val add_nodes : armed -> int -> unit
val add_iters : armed -> int -> unit
val nodes : armed -> int
val iters : armed -> int

(** Seconds since [arm]. *)
val elapsed_s : armed -> float

(** Polls charged so far ({!check} calls). *)
val polls : armed -> int

(** [None] while the run may continue; [Some reason] once any limit has
    been hit. Cheap enough to call in inner loops (one [gettimeofday]
    when a deadline is set). Each call charges the poll counter (and
    may trip a [poll_fuse]). *)
val check : armed -> reason option

(** Like {!check} but without charging the poll counter: the stop
    verdict as the solver last saw it. This is what certificate
    emission and the auditor use, so observing a run never perturbs
    the fault-injection schedule. *)
val inspect : armed -> reason option

(** Whether an armed [poll_fuse] has fired. Always [false] when the
    budget has no fuse. *)
val fuse_tripped : armed -> bool

(** [None]-tolerant variant for optional budgets threaded through
    solver APIs: [stopped None = None]. *)
val stopped : armed option -> reason option

(** [None]-tolerant {!inspect}. *)
val inspected : armed option -> reason option
