let catalog : (string * (?pool:Rv_engine.Pool.t -> unit -> Rv_util.Table.t)) list =
  [
    ("EXP-A", fun ?pool () -> Exp_a.table ?pool ());
    ("EXP-B", fun ?pool () -> Exp_b.table ?pool ());
    ("EXP-C", fun ?pool () -> Exp_c.table ?pool ());
    ("EXP-D", fun ?pool () -> Exp_d.table ?pool ());
    ("EXP-E", fun ?pool () -> Exp_e.table ?pool ());
    ("EXP-F", fun ?pool () -> Exp_f.table ?pool ());
    ("EXP-G", fun ?pool () -> ignore pool; Exp_g.table_progress ());
    ("EXP-G2", fun ?pool () -> ignore pool; Exp_g.table_chain ());
    ("EXP-H", fun ?pool () -> ignore pool; Exp_h.table ());
    ("EXP-I", fun ?pool () -> ignore pool; Exp_i.table ());
    ("EXP-J", fun ?pool () -> Exp_j.table ?pool ());
    ("EXP-K", fun ?pool () -> ignore pool; Exp_k.table ());
    ("EXP-L", fun ?pool () -> ignore pool; Exp_l.table ());
    ("EXP-M", fun ?pool () -> ignore pool; Exp_m.table ());
  ]

let all ?pool () = List.map (fun (id, f) -> (id, f ?pool ())) catalog

let ids = List.map fst catalog

let by_id id =
  let target = String.uppercase_ascii id in
  let target = if String.length target <= 2 then "EXP-" ^ target else target in
  List.assoc_opt target catalog
