let to_dot ?(name = "g") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle];\n";
  List.iter
    (fun (a, b) ->
      Buffer.add_string buf
        (Printf.sprintf "  %d -- %d [label=\"%d:%d\"];\n" a.Port_graph.node
           b.Port_graph.node a.Port_graph.port b.Port_graph.port))
    (Port_graph.edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
