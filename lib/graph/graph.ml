type t = {
  n : int;
  adj : (int * float) list array;
  mutable m : int;
}

let create n =
  if n < 0 then invalid_arg "Graph.create: negative size";
  { n; adj = Array.make (Stdlib.max n 1) []; m = 0 }

let n_vertices g = g.n

let n_edges g = g.m

let check_vertex g v name =
  if v < 0 || v >= g.n then invalid_arg ("Graph." ^ name ^ ": vertex out of range")

let edge_length g u v =
  check_vertex g u "edge_length";
  check_vertex g v "edge_length";
  List.assoc_opt v g.adj.(u)

let add_edge g u v len =
  check_vertex g u "add_edge";
  check_vertex g v "add_edge";
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  if not (Float.is_finite len) then invalid_arg "Graph.add_edge: non-finite length";
  if len <= 0. then invalid_arg "Graph.add_edge: non-positive length";
  match edge_length g u v with
  | None ->
      g.adj.(u) <- (v, len) :: g.adj.(u);
      g.adj.(v) <- (u, len) :: g.adj.(v);
      g.m <- g.m + 1
  | Some old ->
      if len < old then begin
        let replace w lst = List.map (fun (x, l) -> if x = w then (x, len) else (x, l)) lst in
        g.adj.(u) <- replace v g.adj.(u);
        g.adj.(v) <- replace u g.adj.(v)
      end

let neighbors g v =
  check_vertex g v "neighbors";
  g.adj.(v)

let iter_edges g f =
  for u = 0 to g.n - 1 do
    List.iter (fun (v, len) -> if u < v then f u v len) g.adj.(u)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v len -> acc := (u, v, len) :: !acc);
  List.rev !acc

let degree g v =
  check_vertex g v "degree";
  List.length g.adj.(v)

let is_connected g =
  let uf = Union_find.create g.n in
  iter_edges g (fun u v _ -> ignore (Union_find.union uf u v));
  Union_find.n_classes uf <= 1

let of_edges n es =
  let g = create n in
  List.iter (fun (u, v, len) -> add_edge g u v len) es;
  g
