(** Agent labels and the label transformation of [29] (paper, Section 2).

    Each agent carries a distinct integer label from the space [{1..L}].
    For Algorithm [Fast], the label [l] with binary representation
    [(c1 ... cr)] is transformed into the {e modified label}
    [M(l) = (c1 c1 c2 c2 ... cr cr 0 1)].  The doubling plus the
    terminating [01] guarantee that for distinct [x], [y], [M(x)] is never a
    prefix of [M(y)] — the property that forces the two agents' activity
    patterns to differ at some aligned block. *)

type t = int
(** A label; valid labels are [>= 1]. *)

val check : space:int -> t -> unit
(** Raises [Invalid_argument] unless [1 <= label <= space]. *)

val transform : t -> Rv_util.Bitseq.t
(** [M(l)]: each bit doubled, then [0; 1] appended.  Length is
    [2 * bitlength l + 2]. *)

val transformed_length : t -> int
(** [length (transform l)] without building it. *)

val max_transformed_length : space:int -> int
(** Maximum of {!transformed_length} over the label space [{1..space}]. *)
