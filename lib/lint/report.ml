(* Findings and the rule catalog.

   R1..R5 come from the syntactic source pass (Rules); R6..R9 come from
   the typed pass over dune's .cmt artifacts (Typed).  [Lint] is reserved
   for defects in the lint input itself (unparseable file, bare or
   malformed allow directive) and can never be suppressed. *)

module Json = Rv_obs.Json

type rule = R1 | R2 | R3 | R4 | R5 | R6 | R7 | R8 | R9 | Lint

let rule_to_string = function
  | R1 -> "R1"
  | R2 -> "R2"
  | R3 -> "R3"
  | R4 -> "R4"
  | R5 -> "R5"
  | R6 -> "R6"
  | R7 -> "R7"
  | R8 -> "R8"
  | R9 -> "R9"
  | Lint -> "lint"

let rule_of_string s =
  match String.uppercase_ascii (String.trim s) with
  | "R1" -> Some R1
  | "R2" -> Some R2
  | "R3" -> Some R3
  | "R4" -> Some R4
  | "R5" -> Some R5
  | "R6" -> Some R6
  | "R7" -> Some R7
  | "R8" -> Some R8
  | "R9" -> Some R9
  | "LINT" -> Some Lint
  | _ -> None

let all_rules = [ R1; R2; R3; R4; R5; R6; R7; R8; R9 ]

let rule_title = function
  | R1 -> "nondeterminism source"
  | R2 -> "hash-iteration-order leak"
  | R3 -> "unsynchronised top-level mutable state"
  | R4 -> "polymorphic compare/hash"
  | R5 -> "unbalanced observability span"
  | R6 -> "lock-order cycle"
  | R7 -> "blocking under lock / in dispatcher hot path"
  | R8 -> "allocation in a hot loop"
  | R9 -> "exception escapes a thread entrypoint"
  | Lint -> "lint input defect"

let rule_doc = function
  | R1 ->
      "Wall-clock and unseeded randomness (Random.*, Sys.time, \
       Unix.gettimeofday) make sweep output depend on the machine, not the \
       seed.  All randomness must flow through Rv_util.Rng."
  | R2 ->
      "Hashtbl.iter/fold/to_seq enumerate in hash-bucket order, which varies \
       with insertion history; results that reach output must pass through an \
       explicit sort."
  | R3 ->
      "A top-level ref / Hashtbl / Buffer / Queue in a module linked into \
       Pool workers is shared mutable state across domains; it must be \
       Atomic.t, Mutex-guarded, or Domain.DLS-keyed."
  | R4 ->
      "Polymorphic compare/equality/hash is slow and unsound on floats (NaN) \
       and raises on functions; pass a typed comparator (Int.compare, \
       Float.compare, Rv_util.Ord.*) instead."
  | R5 ->
      "Every Obs.begin_span must be lexically paired with an Obs.end_span in \
       the same top-level binding (or use Obs.with_span/Obs.span), or span \
       stacks leak across tasks."
  | R6 ->
      "The static mutex-acquisition graph (every Mutex.lock reached while \
       another mutex is held, one level of intra-library calls deep) must be \
       acyclic and consistently ordered; a cycle or an A-then-B / B-then-A \
       pair is a potential deadlock under adversarial thread timing."
  | R7 ->
      "Unix I/O, channel writes, Thread.delay, a nested Mutex.lock or \
       Condition.wait while a mutex is held — or any of these inside a \
       dispatcher hot path named in the manifest — stalls every thread \
       queued behind the lock; move the blocking call outside the critical \
       section or carry a reasoned allow where the hold is the design."
  | R8 ->
      "Functions named in the hot-path manifest (lint_hotpaths.txt) must not \
       construct closures, tuples, records, arrays, boxed constructors or \
       boxed floats — nor call polymorphic compare/equality on non-immediate \
       values — inside their loop bodies; each such allocation is paid per \
       sweep cell or per served request."
  | R9 ->
      "A raise that can escape a Thread.create/Domain.spawn entrypoint \
       without a wrapping handler kills the thread silently (the process \
       keeps running minus its dispatcher/acceptor); wrap the entrypoint \
       body in a handler that reports."
  | Lint -> "The lint input itself is defective; fix it, it cannot be allowed."

type finding = {
  file : string;
  line : int;
  col : int;
  rule : rule;
  message : string;
}

let rule_rank = function
  | Lint -> 0
  | R1 -> 1
  | R2 -> 2
  | R3 -> 3
  | R4 -> 4
  | R5 -> 5
  | R6 -> 6
  | R7 -> 7
  | R8 -> 8
  | R9 -> 9

let compare_finding a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = Int.compare (rule_rank a.rule) (rule_rank b.rule) in
        if c <> 0 then c else String.compare a.message b.message

let to_string f =
  Printf.sprintf "%s:%d:%d [%s] %s" f.file f.line f.col (rule_to_string f.rule)
    f.message

let to_json f =
  Json.Obj
    [
      ("file", Json.Str f.file);
      ("line", Json.Int f.line);
      ("col", Json.Int f.col);
      ("rule", Json.Str (rule_to_string f.rule));
      ("message", Json.Str f.message);
    ]
