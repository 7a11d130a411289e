(** Graphviz export for debugging and documentation.  Edge labels show the
    port numbers at both endpoints ([pu:pv]). *)

val to_dot : ?name:string -> Port_graph.t -> string
