(** EXP-E — sensitivity to the wake-up delay [tau] (Propositions 2.1/2.2).

    Time and cost of [Cheap] and [Fast] as functions of the delay between
    the agents' starts, worst-cased over starting gaps on an oriented ring.
    The regime change at [tau > E] — where the earlier agent's first
    exploration finds the still-sleeping later agent — is clearly visible:
    both time and cost collapse to [<= E]. *)

val table :
  ?pool:Rv_engine.Pool.t ->
  ?n:int ->
  ?space:int ->
  ?labels:int * int ->
  unit ->
  Rv_util.Table.t
