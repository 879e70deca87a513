(* The flag is atomic so a token can be triggered from one domain and
   observed from another (the serve drain watchdog cancels solves
   running on worker domains). *)

type t = bool Atomic.t

let create () = Atomic.make false
let cancel t = Atomic.set t true
let cancelled t = Atomic.get t
