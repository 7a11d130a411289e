module Ex = Rv_explore.Explorer

let schedule ~label ~explorer =
  if label < 1 then invalid_arg "Cheap.schedule: labels are >= 1";
  let e = explorer.Ex.bound in
  [ Schedule.Explore explorer; Schedule.Pause (2 * label * e); Schedule.Explore explorer ]

let schedule_simultaneous ~label ~explorer =
  if label < 1 then invalid_arg "Cheap.schedule_simultaneous: labels are >= 1";
  let e = explorer.Ex.bound in
  [ Schedule.Pause ((label - 1) * e); Schedule.Explore explorer ]
