(** The stdin/stdout NDJSON transport — the original [hslb serve]
    shape, now a {!Transport} implementation.

    One pre-accepted connection: stdin is the request stream, stdout
    the reply sink. Byte-compatible with the pre-split server: same
    0.05 s select cadence, same buffered line splitting (lines already
    buffered when a drain lands are still submitted), a final
    unterminated line at EOF is processed, every reply line is written
    and flushed atomically. {!Service.run} with [~listen:None] serves
    it and drains when the stream ends. *)

(** [listener ~stop] — hands out the stdin/stdout connection once;
    further accepts block until [stop] fires or the listener is shut
    down. *)
val listener : stop:(unit -> bool) -> Transport.listener
