(** EXP-H — rendezvous without a known exploration bound (Conclusion).

    Compares the iterated-doubling versions of [Cheap] and [Fast] (the
    agents only know the iteration family [EXPLORE_i] with [E_i = 2^i - 1]
    on rings) with their known-[E] counterparts, on rings of several sizes.
    The telescoping claim predicts a bounded constant-factor overhead. *)

val table : ?sizes:int list -> ?space:int -> unit -> Rv_util.Table.t
