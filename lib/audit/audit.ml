(** Independent solution auditing: re-verify solver certificates from
    the raw model or an allocation's specs ({!Checker}, included below
    as [Audit.check_minlp] and [Audit.check_allocation]), and hunt
    unsound claims with deterministic fault injection ({!Stress}). See
    docs/AUDIT.md. *)

include Checker
module Instances = Instances
module Stress = Stress
