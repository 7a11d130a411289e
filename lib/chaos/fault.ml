let close fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reset fd =
  (try Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0)
   with Unix.Unix_error _ -> ());
  close fd

(* Hot frame codec (see lint_hotpaths.txt): the loop body is a bare
   syscall retry — no allocation per iteration.  The failure paths raise
   out of the loop and the result is constructed exactly once below. *)
exception Wrote_zero

let rec write_loop fd buf pos len =
  if len > 0 then
    match Unix.write fd buf pos len with
    | 0 -> raise Wrote_zero
    | k -> write_loop fd buf (pos + k) (len - k)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_loop fd buf pos len

let write_all fd buf ~pos ~len =
  match write_loop fd buf pos len with
  | () -> Ok len
  | exception Wrote_zero -> Error "write: wrote 0 bytes"
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))

let send_line fd line =
  let len = String.length line in
  let b = Bytes.create (len + 1) in
  Bytes.blit_string line 0 b 0 len;
  Bytes.set b len '\n';
  Result.map ignore (write_all fd b ~pos:0 ~len:(len + 1))

let drip_line ?(chunk = 3) ?(pause_s = 0.02) fd line =
  if chunk < 1 then invalid_arg "Fault.drip_line: chunk must be >= 1";
  let frame = line ^ "\n" in
  let b = Bytes.of_string frame in
  let len = Bytes.length b in
  let rec go pos =
    if pos >= len then Ok ()
    else
      let k = min chunk (len - pos) in
      match write_all fd b ~pos ~len:k with
      | Error e -> Error e
      | Ok _ ->
          if pos + k < len then Thread.delay pause_s;
          go (pos + k)
  in
  go 0

let send_partial fd line ~keep =
  let keep = max 0 (min keep (String.length line)) in
  let b = Bytes.of_string (String.sub line 0 keep) in
  Result.map ignore (write_all fd b ~pos:0 ~len:keep)

(* The longest reply [recv_line] accepts. *)
let max_reply_len = 1_048_576

let recv_line ?(timeout_s = 10.) fd =
  let b = Buffer.create 256 in
  let one = Bytes.create 1 in
  let deadline = Rv_serve.Clock.now_s () +. timeout_s in
  let rec go () =
    let left = deadline -. Rv_serve.Clock.now_s () in
    if left <= 0. then Error "timeout"
    else
      match Unix.select [ fd ] [] [] left with
      | [], _, _ -> Error "timeout"
      | _ -> (
          match Unix.read fd one 0 1 with
          | 0 -> Error "eof"
          | _ -> (
              match Bytes.get one 0 with
              | '\n' -> Ok (Buffer.contents b)
              | c ->
                  if Buffer.length b >= max_reply_len then
                    Error "reply exceeds max_len"
                  else begin
                    Buffer.add_char b c;
                    go ()
                  end)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error (e, fn, _) ->
              Error (Printf.sprintf "%s: %s" fn (Unix.error_message e)))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (e, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  in
  go ()

let rpc_line ?timeout_s fd line =
  match send_line fd line with
  | Error e -> Error e
  | Ok () -> recv_line ?timeout_s fd
