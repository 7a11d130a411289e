module Ex = Rv_explore.Explorer

let schedule ~make ~pad ~explorers =
  List.concat_map
    (fun explorer ->
      let s = make ~explorer in
      match pad with
      | None -> s
      | Some target ->
          let want = target explorer and have = Schedule.duration s in
          if want > have then s @ [ Schedule.Pause (want - have) ] else s)
    explorers

let cheap ~space ~label ~explorers =
  schedule
    ~make:(fun ~explorer -> Cheap.schedule ~label ~explorer)
    ~pad:(Some (fun e -> ((2 * space) + 2) * e.Ex.bound))
    ~explorers

let fast ~space ~label ~explorers =
  let m_max = Label.max_transformed_length ~space in
  schedule
    ~make:(fun ~explorer -> Fast.schedule ~label ~explorer)
    ~pad:(Some (fun e -> ((2 * m_max) + 1) * e.Ex.bound))
    ~explorers

let ring_explorer_family ~iterations =
  List.init iterations (fun idx ->
      let i = idx + 1 in
      let bound = (1 lsl i) - 1 in
      Ex.make
        ~name:(Printf.sprintf "ring-cw-2^%d" i)
        ~bound
        ~fresh:(fun () _ -> Ex.Move 0))

let uxs_explorer_family ~seed ~iterations =
  let rec build idx acc =
    if idx > iterations then Ok (List.rev acc)
    else begin
      let m = max 3 (1 lsl idx) in
      let corpus = Rv_explore.Uxs.default_corpus ~size_bound:m in
      match Rv_explore.Uxs.construct ~corpus ~size_bound:m ~seed with
      | Error e -> Error e
      | Ok u -> build (idx + 1) (Rv_explore.Uxs_walk.make u :: acc)
    end
  in
  build 1 []

let iterations_needed ~n =
  let rec go i = if 1 lsl i >= n then i else go (i + 1) in
  go 1
