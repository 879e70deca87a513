(* The transport interface the serve core is written against. A
   transport owns connections; the core owns request semantics. The
   two meet at exactly two points: [submit] (a raw line plus the reply
   sink of the connection it arrived on) and [conn]
   (read-line/write-line/close). Everything else — admission, dedupe,
   deadlines, drain — lives behind [submit] and never learns what fd,
   pipe or buffer the bytes crossed. *)

type conn = {
  peer : string;  (* human-readable endpoint, for logs *)
  read_line : unit -> string option;
      (* Blocking. [Some line] is the next complete frame (no
         terminator). [None] is final: the peer closed, or the
         transport's stop condition fired. Implementations must poll
         their stop condition while blocked so a drain unwedges every
         reader. *)
  write_line : string -> unit;
      (* One frame out (terminator added by the transport). Must be a
         no-op — never an exception — once the peer is gone: replies
         can race a disconnecting client. *)
  close : unit -> unit;  (* idempotent *)
}

type listener = {
  accept : unit -> conn option;
      (* Block until the next connection, or [None] once the listener
         is shut down or its stop condition fired. [None] is final. *)
  shutdown : unit -> unit;
      (* Stop producing connections and unblock a blocked [accept].
         Idempotent. Existing connections are not touched — the drain
         machinery finishes them. *)
}

type submit = reply:(string -> unit) -> string -> unit

(* Serve one connection on the calling domain. It closes once its
   reader has ended and every request it submitted has been answered:
   a drain ends the reader while replies may still be owed, and they
   must not go to a closed fd. Each submitted line gets exactly one
   reply (the serving cores' one-exit rule), so a count suffices. *)
let serve_conn submit conn =
  (* replies owed, plus one while the reader runs *)
  let owed = Atomic.make 1 in
  let settle () = if Atomic.fetch_and_add owed (-1) = 1 then conn.close () in
  let reply line =
    conn.write_line line;
    settle ()
  in
  let rec loop () =
    match conn.read_line () with
    | None -> ()
    | Some line ->
      if String.trim line <> "" then begin
        Atomic.incr owed;
        submit ~reply line
      end;
      loop ()
  in
  Fun.protect ~finally:settle loop

(* Accept loop: one domain per connection, joined before returning so
   a completed drive leaves no orphaned readers. Returns when [accept]
   answers [None] — the transport was shut down (the runner does that
   once the service starts draining) or ran out of connections. *)
let drive ?(on_disconnect = ignore) listener submit =
  let readers = ref [] in
  let rec accept_loop () =
    match listener.accept () with
    | None -> ()
    | Some conn ->
      let d =
        Domain.spawn (fun () ->
            serve_conn submit conn;
            on_disconnect conn)
      in
      readers := d :: !readers;
      accept_loop ()
  in
  accept_loop ();
  List.iter Domain.join !readers
