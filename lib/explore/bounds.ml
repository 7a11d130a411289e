module Pg = Rv_graph.Port_graph

type sandbox = {
  g : Pg.t;
  mutable pos : int;
  mutable entry : int option;
  seen : bool array;
  mutable remaining : int;
}

let sandbox g ~start =
  let n = Pg.n g in
  let seen = Array.make n false in
  seen.(start) <- true;
  { g; pos = start; entry = None; seen; remaining = n - 1 }

let mark sb v =
  if not sb.seen.(v) then begin
    sb.seen.(v) <- true;
    sb.remaining <- sb.remaining - 1
  end

(* One execution of [bound] rounds; returns the first covering round.
   With [ports], also records the port taken in each round ([-1]: a
   wait). *)
let run_execution ?ports sb instance ~bound =
  let cover = ref (if sb.remaining = 0 then Some 0 else None) in
  let error = ref None in
  let record r p = match ports with Some a -> a.(r - 1) <- p | None -> () in
  (try
     for r = 1 to bound do
       let obs = { Explorer.degree = Pg.degree sb.g sb.pos; entry = sb.entry } in
       match instance obs with
       | Explorer.Wait ->
           record r (-1);
           sb.entry <- None
       | Explorer.Move p ->
           if p < 0 || p >= obs.degree then begin
             error := Some (Printf.sprintf "invalid port %d at node %d (degree %d) in round %d"
                              p sb.pos obs.degree r);
             raise Exit
           end;
           record r p;
           let v, q = Pg.follow sb.g sb.pos p in
           sb.pos <- v;
           sb.entry <- Some q;
           mark sb v;
           if sb.remaining = 0 && !cover = None then cover := Some r
     done
   with Exit -> ());
  match !error with Some e -> Error e | None -> Ok !cover

let rounds_to_cover g ~start (t : Explorer.t) =
  let sb = sandbox g ~start in
  match run_execution sb (t.fresh ()) ~bound:t.bound with
  | Error e -> Error (Printf.sprintf "%s: %s" t.name e)
  | Ok (Some r) -> Ok r
  | Ok None ->
      Error
        (Printf.sprintf "%s: started at node %d, coverage incomplete after %d rounds"
           t.name start t.bound)

let verify g ~make =
  let n = Pg.n g in
  let rec from_start s =
    if s >= n then Ok ()
    else
      match rounds_to_cover g ~start:s (make ~start:s) with
      | Ok _ -> from_start (s + 1)
      | Error e -> Error e
  in
  from_start 0

let show_entry = function None -> "no entry port" | Some q -> Printf.sprintf "entry port %d" q

let show_port p = if p < 0 then "waits" else Printf.sprintf "takes port %d" p

(* The contract's second half (Explorer): an execution that began at
   [node] under first observation [entry], and took [ports], must take
   the ports of a fresh first execution of [make ~start:node] there. *)
let check_first_execution g ~make ~node ~entry ~bound ports =
  let t = make ~start:node in
  if t.Explorer.bound <> bound then
    Error
      (Printf.sprintf "from node %d the family declares bound %d, not %d" node t.Explorer.bound
         bound)
  else begin
    let sb = sandbox g ~start:node in
    sb.entry <- entry;
    let fresh = Array.make bound (-1) in
    match run_execution ~ports:fresh sb (t.Explorer.fresh ()) ~bound with
    | Error e -> Error (Printf.sprintf "a first execution from node %d: %s" node e)
    | Ok _ -> (
        match List.find_opt (fun r -> ports.(r) <> fresh.(r)) (List.init bound Fun.id) with
        | None -> Ok ()
        | Some r ->
            Error
              (Printf.sprintf
                 "begun at node %d with %s, it %s in round %d, where a first execution of the \
                  family for start %d %s"
                 node (show_entry entry) (show_port ports.(r)) (r + 1) node
                 (show_port fresh.(r))))
  end

let verify_repeated g ~make ~executions =
  let n = Pg.n g in
  let rec from_start s =
    if s >= n then Ok ()
    else begin
      let t = make ~start:s in
      let bound = t.Explorer.bound in
      let sb = sandbox g ~start:s in
      let rec exec k =
        if k > executions then Ok ()
        else begin
          (* Reset coverage for this execution: only the current node counts
             as initially visited. *)
          Array.fill sb.seen 0 n false;
          sb.seen.(sb.pos) <- true;
          sb.remaining <- n - 1;
          let node = sb.pos and entry = sb.entry in
          let ports = Array.make bound (-1) in
          let fail e = Error (Printf.sprintf "%s (execution %d): %s" t.Explorer.name k e) in
          match run_execution ~ports sb (t.Explorer.fresh ()) ~bound with
          | Error e -> fail e
          | Ok None ->
              Error
                (Printf.sprintf
                   "%s: execution %d from tracked position %d incomplete after %d rounds"
                   t.Explorer.name k node bound)
          | Ok (Some _) -> (
              match check_first_execution g ~make ~node ~entry ~bound ports with
              | Ok () -> exec (k + 1)
              | Error e -> fail e)
        end
      in
      match exec 1 with Ok () -> from_start (s + 1) | Error e -> Error e
    end
  in
  from_start 0

let worst g ~make =
  let n = Pg.n g in
  let rec from_start s acc =
    if s >= n then Ok acc
    else
      match rounds_to_cover g ~start:s (make ~start:s) with
      | Ok r -> from_start (s + 1) (max acc r)
      | Error e -> Error e
  in
  from_start 0 0
