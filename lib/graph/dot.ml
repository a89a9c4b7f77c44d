let of_graph ?label ?(highlight = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph G {\n  node [shape=circle];\n";
  let name v = match label with Some f -> f v | None -> string_of_int v in
  for v = 0 to Graph.n_vertices g - 1 do
    let extra = if List.mem v highlight then ", style=filled, fillcolor=lightblue" else "" in
    Buffer.add_string buf
      (Printf.sprintf "  %d [label=\"%s\"%s];\n" v (name v) extra)
  done;
  Graph.iter_edges g (fun u v len ->
      Buffer.add_string buf (Printf.sprintf "  %d -- %d [label=\"%.2f\"];\n" u v len));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
