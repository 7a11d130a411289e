(** Adversarial client primitives.

    Everything rv_serve's transport must survive, packaged as raw-socket
    operations a scenario ({!Scenario}) composes: byte-dripped frames,
    partial writes, abrupt resets, bounded reads.  All operations work
    on bare file descriptors — no buffered channels — so a scenario
    controls exactly which bytes hit the wire and when.

    Nothing here retries or hides failures: every operation returns
    [Error] with the syscall context so a scenario can distinguish "the
    server closed on me" (often the expected outcome) from "my own
    socket broke". *)

val close : Unix.file_descr -> unit
(** Orderly close (FIN); errors ignored. *)

val reset : Unix.file_descr -> unit
(** Abrupt close: SO_LINGER 0 then close, so the peer sees a TCP RST —
    the "client yanked the cable" disconnect.  Errors ignored. *)

val send_line : Unix.file_descr -> string -> (unit, string) result
(** One whole frame: the string plus the terminating newline, in a
    single buffer. *)

val drip_line :
  ?chunk:int -> ?pause_s:float -> Unix.file_descr -> string -> (unit, string) result
(** Slow-loris send: the frame (newline included) in [chunk]-byte pieces
    (default 3) with [pause_s] between them (default 0.02s).  The server
    must neither time the connection out mid-frame nor act on a partial
    line. *)

val send_partial : Unix.file_descr -> string -> keep:int -> (unit, string) result
(** The first [keep] bytes of the frame and {e no} newline — the
    mid-frame disconnect setup.  Follow with {!close} (FIN: the server
    sees the partial line at EOF) or {!reset} (RST: the server sees a
    dead socket). *)

val recv_line : ?timeout_s:float -> Unix.file_descr -> (string, string) result
(** Read up to the next newline (excluded), byte at a time, waiting at
    most [timeout_s] (default 10s) for each byte.  [Error "eof"] on a
    clean close before any newline, [Error "timeout"] when the server
    goes quiet, [Error] with context on socket errors.  A reply longer
    than 1MB is an [Error]: this client distrusts the server exactly as
    much as the server distrusts it. *)

val rpc_line :
  ?timeout_s:float -> Unix.file_descr -> string -> (string, string) result
(** {!send_line} then {!recv_line} — a clean request/reply exchange on
    an existing connection. *)
