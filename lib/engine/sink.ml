(* A line sink renders each record into its own buffer (cleared per
   record, so it only grows to the longest line) and hands the bytes to
   the channel in one write: no per-record string is built. *)
type target =
  | Null
  | Lines of { oc : out_channel; buf : Buffer.t; add : Buffer.t -> Record.t -> unit }
  | Memory of Record.t list ref
  | Tee of t list

(* A sink-owned file is written as [<path>.tmp.<pid>] and renamed into
   place on [close]: a crash or a killed sweep leaves the previous
   output intact instead of a truncated half-file, and readers polling
   [path] never observe a partial write (rename is atomic on POSIX). *)
and owned_file = {
  oc : out_channel;
  tmp_path : string;
  final_path : string;
  fsync : bool;
}

and t = {
  lock : Mutex.t;
  target : target;
  owned : owned_file option;  (* renamed+closed by [close]; [None] = caller's channel *)
  mutable emitted : int;
  mutable closed : bool;
}

let make ?owned target =
  { lock = Mutex.create (); target; owned; emitted = 0; closed = false }

let null () = make Null
let memory () = make (Memory (ref []))

(* A JSONL or CSV sink on [oc]; a CSV one writes its header first. *)
let lines ?owned format oc =
  let add =
    match format with
    | `Jsonl -> Record.add_json
    | `Csv ->
        output_string oc (Record.csv_header ^ "\n");
        Record.add_csv
  in
  make ?owned (Lines { oc; buf = Buffer.create 256; add })

let jsonl oc = lines `Jsonl oc
let csv oc = lines `Csv oc

let file ?(fsync = false) format path =
  let tmp_path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out tmp_path in
  lines ~owned:{ oc; tmp_path; final_path = path; fsync } format oc

let tee children = make (Tee children)

let rec emit t r =
  Mutex.lock t.lock;
  if t.closed then begin
    Mutex.unlock t.lock;
    invalid_arg "Sink.emit: sink is closed"
  end;
  t.emitted <- t.emitted + 1;
  (match t.target with
  | Null -> ()
  | Lines { oc; buf; add } ->
      Buffer.clear buf;
      add buf r;
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf
  | Memory buf -> buf := r :: !buf
  | Tee _ -> ());
  Mutex.unlock t.lock;
  (* Children lock themselves; don't hold the parent's mutex across them. *)
  match t.target with Tee children -> emit_all children r | _ -> ()

and emit_all children r =
  match children with
  | [] -> ()
  | c :: rest ->
      emit c r;
      emit_all rest r

let count t =
  Mutex.lock t.lock;
  let c = t.emitted in
  Mutex.unlock t.lock;
  c

let records t =
  Mutex.lock t.lock;
  let rs = match t.target with Memory buf -> List.rev !buf | _ -> [] in
  Mutex.unlock t.lock;
  rs

(* The same temp+rename discipline as [file], packaged for writers that
   produce whole artifacts (e.g. rv_index bakes): the callback sees only
   an out_channel, the final path appears in one [rename]. *)
let write_file_atomic ?(fsync = false) path f =
  let tmp_path = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = open_out_bin tmp_path in
  match f oc with
  | () ->
      flush oc;
      if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
      close_out oc;
      Unix.rename tmp_path path
  | exception exn ->
      (try close_out oc with Sys_error _ -> ());
      (try Sys.remove tmp_path with Sys_error _ -> ());
      raise exn

let rec close t =
  (* rv_lint: allow R7 -- close-time flush/fsync under the sink lock is
     the design: the lock is what serialises the final write against
     concurrent emitters, and close runs once on shutdown *)
  Mutex.lock t.lock;
  if not t.closed then begin
    t.closed <- true;
    (match t.target with
    | Lines { oc; _ } -> (
        match t.owned with
        | Some o ->
            flush o.oc;
            if o.fsync then Unix.fsync (Unix.descr_of_out_channel o.oc);
            close_out o.oc;
            Unix.rename o.tmp_path o.final_path
        | None -> flush oc)
    | Null | Memory _ | Tee _ -> ())
  end;
  Mutex.unlock t.lock;
  match t.target with Tee children -> List.iter close children | _ -> ()
