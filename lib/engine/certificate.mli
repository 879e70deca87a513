(** Machine-checkable solver claims.

    Every solver in the stack emits a certificate alongside its result:
    the incumbent it found (the {e feasibility witness}), the objective
    it claims for it, the best relaxation bound it proved, and — for
    proven-[Optimal] claims — the gap evidence. The certificate is pure
    data: it never references solver internals, so an independent
    checker ([Audit.check] in lib/audit) can re-verify the claim from
    the raw model alone. Certificates ride in {!Run_report} and are what
    [hslb serve] and [--audit] re-verify before an answer is trusted.

    All objective-like fields are in the {e problem's own sense} except
    [claimed_bound], which is min-sense (smaller = better), matching the
    convention of the branch-and-bound layers; [minimize] records the
    sense so the checker can convert. *)

(** Branch-cover summary for tree searches: an [Optimal] claim is only
    as good as its assertion that no branch remains open. *)
type cover = { explored : int; pruned : int; open_branches : int }

(** One class's part of a threshold witness for a separable min-max
    model at the claimed optimum [T*] (sizes are values of the class's
    size variable). *)
type side =
  | Below of int
      (** the least admissible size whose time row is negative at [T*] *)
  | Floor of int
      (** no admissible size is: this one minimizes the class's time,
          which is [T*] or more *)

type evidence =
  | Gap_closed  (** [claimed_bound >= key claimed_obj - tol·scale] *)
  | Cover_exhausted of cover
      (** the branch-and-bound cover was fully explored
          ([open_branches] must be 0 for the claim to stand) *)
  | Threshold of side array
      (** one side per time row of a min-max model, in row order: no
          allocation beats [T*] because some class has a [Floor], or
          because every class at its [Below] size overflows the budget
          row (docs/AUDIT.md) *)
  | Exact_method of string
      (** a customized exact path (greedy marginal allocation,
          bisection) whose optimality is structural; it names nothing
          a model can re-check *)
  | Incumbent_only  (** no optimality claim: best point found so far *)
  | No_witness  (** no usable point (infeasible / nothing found) *)

type t = {
  producer : string;  (** solver name, e.g. "oa" or "hslb.bisection" *)
  claimed_status : Status.t;
  witness : float array option;  (** incumbent in the original variable space *)
  claimed_obj : float;  (** objective the producer claims at the witness *)
  claimed_bound : float;  (** best proven relaxation bound, min-sense *)
  minimize : bool;
  tol : float;  (** relative gap tolerance the claim was made under *)
  evidence : evidence;
  budget_stop : string option;
      (** the engine budget's own stop verdict observed (without
          charging the budget) at emission time; a proven-[Optimal]
          claim recorded together with an injected stop is the
          PR-2 soundness bug class the stress harness hunts *)
}

val make :
  producer:string ->
  claimed_status:Status.t ->
  ?witness:float array ->
  ?claimed_obj:float ->
  ?claimed_bound:float ->
  ?minimize:bool ->
  ?tol:float ->
  evidence:evidence ->
  ?budget_stop:string ->
  unit ->
  t

val evidence_to_string : evidence -> string

(** [key t v] — [v] converted to min-sense under the certificate's
    recorded objective sense. *)
val key : t -> float -> float

(** [gap t] — [key claimed_obj - claimed_bound]; [nan] without a
    witness. Non-negative for a consistent certificate. *)
val gap : t -> float

(** Compact single-object JSON (no trailing newline); non-finite floats
    are emitted as [null]. *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit
