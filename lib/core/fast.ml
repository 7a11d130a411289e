module Bitseq = Rv_util.Bitseq

let pattern_of_bits s =
  (* T[1] = 1; T[2i] = T[2i+1] = S[i]. *)
  true :: List.concat_map (fun b -> [ b; b ]) (Array.to_list s)

let pattern ~label = pattern_of_bits (Label.transform label)

let pattern_simultaneous ~label = Array.to_list (Label.transform label)

let schedule ~label ~explorer = Schedule.blocks ~explorer (pattern ~label)

let schedule_simultaneous ~label ~explorer =
  Schedule.blocks ~explorer (pattern_simultaneous ~label)
