(* Explicitly-typed comparators.

   The repo bans bare polymorphic [compare] as a comparator (rv_lint R4):
   it is slow (runtime structure walk), unsound on floats (NaN escapes
   the order) and raises on functions.  These combinators make the typed
   replacement as terse as the polymorphic original:

     List.sort_uniq Ord.(pair int int) pairs
     List.sort Ord.(by fst string) named *)

let int = Int.compare
let string = String.compare

let pair ca cb (a1, b1) (a2, b2) =
  let c = ca a1 a2 in
  if c <> 0 then c else cb b1 b2

let by key c a b = c (key a) (key b)
