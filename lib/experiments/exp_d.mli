(** EXP-D — the time/cost tradeoff curve (Corollary 2.1 and the paper's
    open problem).

    For fixed [L], walks [FastWithRelabeling(w)] across
    [w = 1 .. ceil(log2 L)] and brackets it with the [Cheap] and [Fast]
    endpoints.  Expected shape: cost increases and time decreases
    monotonically in [w]; intermediate [w] simultaneously beats [Cheap]'s
    time and [Fast]'s cost — the separation result of Section 1.3. *)

val table :
  ?pool:Rv_engine.Pool.t -> ?n:int -> ?space:int -> unit -> Rv_util.Table.t
