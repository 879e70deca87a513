(* The flag is atomic so a token can be triggered from one domain and
   observed from another (the serve drain watchdog cancels solves
   running on worker domains). A linked token also reports cancelled
   when any of its parents is, letting a budget combine an extra token
   with a caller-supplied one without mutating either. *)

type t = { flag : bool Atomic.t; parents : t list }

let create () = { flag = Atomic.make false; parents = [] }
let cancel t = Atomic.set t.flag true
let rec cancelled t = Atomic.get t.flag || List.exists cancelled t.parents
let link parents = { flag = Atomic.make false; parents }
