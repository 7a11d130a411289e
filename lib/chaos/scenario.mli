(** The fault-injection scenario catalog and its contract checker.

    Each scenario drives one hostile client behavior against a live
    rv_serve instance and asserts the behavior-specific effects (which
    counters moved, which replies arrived); afterwards the shared
    {e contract} check asserts what must hold after {e any} abuse: the
    health probe answers, connections settle (no stuck registry
    entries), and a clean control query on a fresh connection returns
    exactly the bytes an in-process evaluation of the same line
    produces.

    Scenarios are deterministic per seed and sized from the server's own
    health probe (the queue storm bursts at [2 x queue_cap + 4]), so the
    same catalog runs against a unit-test server and a production-shaped
    one. *)

type env = { host : string; port : int; seed : int }

type outcome = {
  o_name : string;
  o_passed : bool;
  o_detail : string;  (** what moved / what failed, for the operator *)
}

val names : string list
(** Catalog order; [run_all] runs them in this order. *)

val run_one : env -> string -> (outcome, string) result
(** Run one scenario plus the contract check.  [Error] only for an
    unknown name — a failing scenario is an [Ok] outcome with
    [o_passed = false]. *)

val run_all :
  ?only:string list -> host:string -> port:int -> seed:int -> unit ->
  (outcome list, string) result

val expected_for : string -> string
(** What the server must answer for a query line with no deadline:
    the line parsed and evaluated in-process, rendered through the
    server's success and error printers.  Raises [Invalid_argument] on
    an unparseable or admin line. *)

val contract : env -> (string, string) result
(** The shared post-scenario assertion, exposed for the soak loop's
    final verdict.  [Ok detail] on success. *)
