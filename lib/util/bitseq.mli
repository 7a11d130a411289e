(** Bit strings used for agent labels and transformed labels.

    A bit string is represented as a [bool array]; index 0 is the leftmost
    (most significant) bit, matching the paper's notation [x = (c1 ... cr)]
    for the binary representation of a label. *)

type t = bool array

val of_int : int -> t
(** [of_int n] is the binary representation of [n >= 1], most significant bit
    first, without leading zeros.  Raises [Invalid_argument] if [n < 1]. *)

val to_int : t -> int
(** Inverse of {!of_int} on canonical (non-empty, no-leading-zero) strings;
    accepts leading zeros. Raises [Invalid_argument] on overflow or empty. *)

val of_string : string -> t
(** [of_string "1011"] parses a string of ['0']/['1'] characters. *)

val to_string : t -> string
(** Renders as a string of ['0']/['1'] characters. *)

val is_prefix : t -> t -> bool
(** [is_prefix p s] is true iff [p] is a (non-strict) prefix of [s]. *)

val compare_lex : t -> t -> int
(** Lexicographic comparison; on equal-length strings this is numeric
    comparison. Shorter strings that are prefixes compare smaller. *)

val append_bits : t -> bool list -> t

val double_each : t -> t
(** [double_each [|b1; ...; bk|]] is [[|b1; b1; ...; bk; bk|]]. *)
