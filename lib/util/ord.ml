(* Explicitly-typed comparators.

   The repo bans bare polymorphic [compare] as a comparator (rv_lint R4):
   it is slow (runtime structure walk), unsound on floats (NaN escapes
   the order) and raises on functions.  These combinators make the typed
   replacement as terse as the polymorphic original:

     List.sort_uniq Ord.(pair int int) pairs
     List.sort Ord.(by snd float) weighted *)

let int = Int.compare
let float = Float.compare
let string = String.compare
let bool = Bool.compare

let pair ca cb (a1, b1) (a2, b2) =
  let c = ca a1 a2 in
  if c <> 0 then c else cb b1 b2

let triple ca cb cc (a1, b1, c1) (a2, b2, c2) =
  let c = ca a1 a2 in
  if c <> 0 then c
  else
    let c = cb b1 b2 in
    if c <> 0 then c else cc c1 c2

let rec list c xs ys =
  match (xs, ys) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
      let r = c x y in
      if r <> 0 then r else list c xs' ys'

let option c a b =
  match (a, b) with
  | None, None -> 0
  | None, Some _ -> -1
  | Some _, None -> 1
  | Some x, Some y -> c x y

let by key c a b = c (key a) (key b)
let rev c a b = c b a
