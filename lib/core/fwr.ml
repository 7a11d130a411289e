let schedule ~scheme ~label ~explorer =
  let s = Relabel.apply scheme label in
  Schedule.blocks ~explorer (Fast.pattern_of_bits s)

let schedule_simultaneous ~scheme ~label ~explorer =
  let s = Relabel.apply scheme label in
  Schedule.blocks ~explorer (Array.to_list s)
