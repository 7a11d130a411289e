let make (u : Uxs.t) =
  let terms = u.Uxs.terms in
  let fresh () =
    let i = ref 0 in
    fun (obs : Explorer.observation) ->
      if !i >= Array.length terms then Explorer.Wait
      else begin
        let a = terms.(!i) in
        incr i;
        let q = match obs.entry with None -> 0 | Some q -> q in
        Explorer.move ((q + a) mod obs.degree)
      end
  in
  Explorer.make
    ~name:(Printf.sprintf "uxs-m%d-seed%d" u.Uxs.size_bound u.Uxs.seed)
    ~bound:(Array.length terms) ~fresh
