(* The original transport, now a thin adapter: stdin is a single
   pre-accepted connection, stdout is its reply sink. Byte-compatible
   with the pre-split server — same select cadence, same buffered line
   splitting, same final-partial-line handling, same flush-per-line
   writes — so the PR 4/5 fixtures drive the refactored core
   unchanged. *)

let make_conn ~stop =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let lines = Queue.create () in
  let eof = ref false in
  let split_complete_lines () =
    let s = Buffer.contents buf in
    let rec go start =
      match String.index_from_opt s start '\n' with
      | Some j ->
        Queue.push (String.sub s start (j - start)) lines;
        go (j + 1)
      | None -> start
    in
    let consumed = go 0 in
    if consumed > 0 then begin
      Buffer.clear buf;
      Buffer.add_substring buf s consumed (String.length s - consumed)
    end
  in
  let rec read_line () =
    if not (Queue.is_empty lines) then Some (Queue.pop lines)
    else if !eof then None
    else if stop () then
      (* drain/SIGTERM: stop reading; an unterminated partial stays
         unprocessed, exactly as before the split *)
      None
    else
      match Unix.select [ Unix.stdin ] [] [] 0.05 with
      | [], _, _ -> read_line ()
      | _ :: _, _, _ -> (
        match Unix.read Unix.stdin chunk 0 (Bytes.length chunk) with
        | 0 ->
          eof := true;
          (* a final line without trailing newline still counts *)
          let rest = String.trim (Buffer.contents buf) in
          Buffer.clear buf;
          if rest <> "" then Some rest else None
        | k ->
          Buffer.add_subbytes buf chunk 0 k;
          split_complete_lines ();
          read_line ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ())
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_line ()
  in
  let write_line line =
    print_string line;
    print_newline ();
    flush stdout
  in
  { Transport.peer = "stdio"; read_line; write_line; close = (fun () -> ()) }

(* hands out the one connection, then blocks until drain/shutdown *)
let listener ~stop =
  let handed_out = ref false and shut = Atomic.make false in
  let rec accept () =
    if Atomic.get shut || (!handed_out && stop ()) then None
    else if not !handed_out then begin
      handed_out := true;
      Some (make_conn ~stop)
    end
    else begin
      Unix.sleepf 0.05;
      accept ()
    end
  in
  { Transport.accept; shutdown = (fun () -> Atomic.set shut true) }
