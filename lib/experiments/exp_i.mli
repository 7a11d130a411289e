(** EXP-I — ablations: why the algorithms look the way they do.

    Three design choices called out in DESIGN.md are knocked out one at a
    time, and the resulting failure (or regression) is measured:

    - {b Fast without bit-doubling}: run the simultaneous-start pattern
      [M(l)] under wake-up delays.  Without the leading-1 block and the
      doubled bits, blocks no longer overlap when the clocks are offset;
      the table counts configurations that never meet.
    - {b Cheap without the first exploration}: drop Line 1 of Algorithm 1
      (keeping wait + explore).  The [tau > E] regime breaks: a heavily
      delayed pair can miss.
    - {b Unknown-E without padding}: iterate Algorithm [Cheap] with
      label-dependent iteration lengths.  Desynchronized iterations break
      the alignment the single-iteration proof needs. *)

val table : ?n:int -> ?space:int -> unit -> Rv_util.Table.t
