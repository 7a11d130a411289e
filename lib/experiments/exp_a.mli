(** EXP-A — the headline table (Propositions 2.1–2.3).

    Worst-case time and cost of [Cheap], [Fast], [FWR(2)], [FWR(3)] on the
    oriented ring, over adversarial starting positions, wake-up delays and
    label pairs, against the proven bounds.  Expected shape: [Cheap]'s cost
    stays within [3E] while its time scales with [L]; [Fast]'s time and
    cost both scale with [log L]; [FWR] sits in between. *)

val table :
  ?pool:Rv_engine.Pool.t -> ?n:int -> ?spaces:int list -> unit -> Rv_util.Table.t
