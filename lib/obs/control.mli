(** Global observability switch.

    Every instrumentation site in the stack (engine phases, pool
    tasks, serve requests) checks this single atomic flag
    before doing any work, so a disabled process pays one atomic load
    per site and nothing else — no allocation, no clock read, no lock.
    The flag is process-wide and safe to flip from any domain; spans
    already open when the flag flips still complete normally. *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

(** [with_enabled f] runs [f] with observability on and restores the
    disabled state afterwards (also on exception). Intended for tests
    and for scoped capture such as [bench --trace]. *)
val with_enabled : (unit -> 'a) -> 'a
