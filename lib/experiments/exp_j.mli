(** EXP-J — capability baselines around the paper's model.

    The paper's model (no marking, no identity knowledge, deterministic)
    pins down where the [L]-dependence comes from.  This table brackets the
    deterministic algorithms with the baselines the paper mentions:

    - the {b identity oracle} (Section 1.2): both labels known, the smaller
      waits — time and cost [E], the unreachable ideal;
    - the {b token model} (Section 1.4, [39]): anonymous agents that may
      mark their start — [O(n)] on rings with no labels at all, but with an
      unavoidable symmetric-tie failure and a capability the main model
      forbids;
    - the {b randomized baseline} (Section 1.4, [5]): seeded double random
      walks — no labels, only expected-time guarantees. *)

val table :
  ?pool:Rv_engine.Pool.t -> ?n:int -> ?space:int -> unit -> Rv_util.Table.t
