(* Unix-domain / TCP socket transport: the same newline framing as
   stdio, but many concurrent connections. One listener fd accepted on
   the drive domain (polling the stop condition), one reader domain per
   connection (spawned by [Transport.drive]); replies are written
   straight to the connection's fd — atomicity across worker domains
   comes from the server core's emit lock, not from here. A [Client]
   half lives here too: the router's backend links and [hslb loadgen]
   both speak it. *)

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let addr_of_string s =
  match String.index_opt s ':' with
  | None ->
    Error
      (Printf.sprintf "bad address %S: expected unix:PATH or tcp:HOST:PORT" s)
  | Some i -> (
    let scheme = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match scheme with
    | "unix" ->
      if rest = "" then Error "bad address: unix: needs a socket path"
      else Ok (Unix_path rest)
    | "tcp" -> (
      match String.rindex_opt rest ':' with
      | None -> Error (Printf.sprintf "bad address %S: tcp needs HOST:PORT" s)
      | Some j -> (
        let host = String.sub rest 0 j in
        let port = String.sub rest (j + 1) (String.length rest - j - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 ->
          Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | Some _ | None ->
          Error (Printf.sprintf "bad address %S: port must be 0..65535" s)))
    | other ->
      Error
        (Printf.sprintf "bad address scheme %S: expected unix:PATH or tcp:HOST:PORT"
           other))

(* writes can race a dying peer from worker domains; never let a reply
   kill the server *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let sockaddr_of = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
    let ip =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
        | { Unix.ai_addr = Unix.ADDR_INET (ip, _); _ } :: _ -> ip
        | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
    in
    Unix.ADDR_INET (ip, port)

let write_all fd line =
  let payload = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length payload in
  let rec go off =
    if off < n then
      match Unix.write fd payload off (n - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* a reply sink must be a no-op once the peer is gone *)
let write_line_quiet fd line =
  try write_all fd line
  with
  | Unix.Unix_error
      ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN | Unix.ESHUTDOWN), _, _)
    ->
    ()

(* ---------- buffered line reading with a stop poll ---------- *)

type reader = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  chunk : Bytes.t;
  lines : string Queue.t;
  mutable eof : bool;
}

let make_reader fd =
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 4096; lines = Queue.create (); eof = false }

let split_lines r =
  let s = Buffer.contents r.buf in
  let rec go start =
    match String.index_from_opt s start '\n' with
    | Some j ->
      let line = String.sub s start (j - start) in
      (* tolerate CRLF peers *)
      let line =
        let n = String.length line in
        if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line
      in
      Queue.push line r.lines;
      go (j + 1)
    | None -> start
  in
  let consumed = go 0 in
  if consumed > 0 then begin
    Buffer.clear r.buf;
    Buffer.add_substring r.buf s consumed (String.length s - consumed)
  end

let flush_final r =
  let rest = String.trim (Buffer.contents r.buf) in
  Buffer.clear r.buf;
  if rest <> "" then Some rest else None

(* One poll step: [`Line] if a complete frame is buffered, [`Eof] when
   the stream ended (the final unterminated line is returned first),
   [`Nothing] after an idle [timeout_s]. *)
let read_step r ~timeout_s =
  if not (Queue.is_empty r.lines) then `Line (Queue.pop r.lines)
  else if r.eof then `Eof
  else
    match Unix.select [ r.fd ] [] [] timeout_s with
    | [], _, _ -> `Nothing
    | _ :: _, _, _ -> (
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> (
        r.eof <- true;
        match flush_final r with Some l -> `Line l | None -> `Eof)
      | k ->
        Buffer.add_subbytes r.buf r.chunk 0 k;
        split_lines r;
        if Queue.is_empty r.lines then `Nothing else `Line (Queue.pop r.lines)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Nothing
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF), _, _) -> (
        r.eof <- true;
        match flush_final r with Some l -> `Line l | None -> `Eof))
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Nothing
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> `Eof

(* ---------- the listener ---------- *)

type t = {
  addr : addr;
  lfd : Unix.file_descr;
  stop : unit -> bool;
  shut : bool Atomic.t;
  mutable n_conns : int;  (* monotone; names peers *)
}

let listen ?(backlog = 16) ~stop addr =
  Lazy.force ignore_sigpipe;
  let domain = match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET in
  let lfd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Unix_path p -> (
    (* a stale socket file from a crashed predecessor blocks bind *)
    match Unix.unlink p with
    | () -> ()
    | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
  | Tcp _ -> Unix.setsockopt lfd Unix.SO_REUSEADDR true);
  (try
     Unix.bind lfd (sockaddr_of addr);
     Unix.listen lfd backlog
   with e ->
     Unix.close lfd;
     raise e);
  { addr; lfd; stop; shut = Atomic.make false; n_conns = 0 }

(* the actual bound address — resolves a [tcp:HOST:0] wildcard port *)
let bound_addr t =
  match t.addr with
  | Unix_path _ as a -> a
  | Tcp (host, _) -> (
    match Unix.getsockname t.lfd with
    | Unix.ADDR_INET (_, port) -> Tcp (host, port)
    | Unix.ADDR_UNIX p -> Unix_path p)

(* [stop] polled while idle: a drain must unwedge every reader even
   when its peer stays connected, or joining the reader domains would
   hang. Buffered complete lines are still delivered first. *)
let conn_of_fd ~peer ~stop fd =
  let r = make_reader fd in
  let closed = Atomic.make false in
  let rec read_line () =
    match read_step r ~timeout_s:0.05 with
    | `Line l -> Some l
    | `Eof -> None
    | `Nothing -> if Atomic.get closed || stop () then None else read_line ()
  in
  {
    Transport.peer;
    read_line;
    write_line = (fun line -> write_line_quiet fd line);
    close =
      (fun () ->
        if not (Atomic.exchange closed true) then
          try Unix.close fd with Unix.Unix_error _ -> ());
  }

let rec accept t =
  if Atomic.get t.shut || t.stop () then None
  else
    match Unix.select [ t.lfd ] [] [] 0.05 with
    | [], _, _ -> accept t
    | _ :: _, _, _ -> (
      match Unix.accept t.lfd with
      | fd, _ ->
        t.n_conns <- t.n_conns + 1;
        Some
          (conn_of_fd
             ~peer:(Printf.sprintf "%s#%d" (addr_to_string t.addr) t.n_conns)
             ~stop:(fun () -> Atomic.get t.shut || t.stop ())
             fd)
      | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> accept t
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> None)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept t
    | exception Unix.Unix_error (Unix.EBADF, _, _) -> None

let shutdown t =
  if not (Atomic.exchange t.shut true) then begin
    (try Unix.close t.lfd with Unix.Unix_error _ -> ());
    match t.addr with
    | Unix_path p -> (
      match Unix.unlink p with
      | () -> ()
      | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
    | Tcp _ -> ()
  end

let listener t =
  { Transport.accept = (fun () -> accept t); shutdown = (fun () -> shutdown t) }

(* ---------- the client half ---------- *)

module Client = struct
  type nonrec t = {
    addr : addr;
    fd : Unix.file_descr;
    r : reader;
    send_lock : Mutex.t;
    closed : bool Atomic.t;
  }

  let connect addr =
    Lazy.force ignore_sigpipe;
    let domain =
      match addr with Unix_path _ -> Unix.PF_UNIX | Tcp _ -> Unix.PF_INET
    in
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (sockaddr_of addr)
     with e ->
       Unix.close fd;
       raise e);
    { addr; fd; r = make_reader fd; send_lock = Mutex.create (); closed = Atomic.make false }

  let peer t = addr_to_string t.addr

  (* false once the peer is gone — callers decide whether that is a
     backend death (router) or the end of a run (loadgen) *)
  let send t line =
    if Atomic.get t.closed then false
    else begin
      Mutex.lock t.send_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.send_lock)
        (fun () ->
          match write_all t.fd line with
          | () -> true
          | exception
              Unix.Unix_error
                ( ( Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ENOTCONN
                  | Unix.ESHUTDOWN ),
                  _,
                  _ ) ->
            false)
    end

  let recv ?(timeout_s = 0.05) t =
    if Atomic.get t.closed && Queue.is_empty t.r.lines then `Eof
    else
      match read_step t.r ~timeout_s with
      | `Line l -> `Line l
      | `Eof -> `Eof
      | `Nothing -> `Timeout

  let close t =
    if not (Atomic.exchange t.closed true) then
      try Unix.close t.fd with Unix.Unix_error _ -> ()
end
