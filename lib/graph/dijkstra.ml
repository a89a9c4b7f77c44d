(* The flat shortest-path kernel (see the .mli): CSR adjacency in
   [Graph] list order, an unboxed heap with the tie rules of the event
   queue in [Qp_runtime.Event] (strict [<] in sift-up, the left child
   winning ties in sift-down),
   and on a tree an O(n) walk, whose d(s,w) = d(s,v) + len(v,w) along
   the unique path is the very float sum Dijkstra forms. *)

type csr = {
  n : int;
  off : int array; (* neighbours of v at off.(v) .. off.(v + 1) - 1 *)
  dst : int array;
  len : float array;
  tree : bool; (* connected with n - 1 edges: rows are walked *)
}

(* The connectivity half of the tree test belongs here: a disconnected
   graph with n - 1 edges has a cycle the walk would never leave. *)
let csr_of_graph g =
  let n = Graph.n_vertices g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let dst = Array.make off.(n) 0 and len = Array.make off.(n) 0. in
  for v = 0 to n - 1 do
    List.iteri
      (fun i (w, l) ->
        dst.(off.(v) + i) <- w;
        len.(off.(v) + i) <- l)
      (Graph.neighbors g v)
  done;
  { n; off; dst; len; tree = Graph.n_edges g = n - 1 && Graph.is_connected g }

let csr_of_edges n edges =
  let off = Array.make (n + 1) 0 and uf = Union_find.create n in
  Array.iter
    (fun (u, v, _) ->
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1;
      ignore (Union_find.union uf u v))
    edges;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  (* [Graph.add_edge] prepends, so later edges come first: fill each
     vertex's slice from its end. *)
  let next = Array.sub off 1 n in
  let dst = Array.make off.(n) 0 and len = Array.make off.(n) 0. in
  let put u w l =
    next.(u) <- next.(u) - 1;
    dst.(next.(u)) <- w;
    len.(next.(u)) <- l
  in
  Array.iter (fun (u, v, l) -> put u v l; put v u l) edges;
  let tree = Array.length edges = n - 1 && Union_find.n_classes uf = 1 in
  { n; off; dst; len; tree }

let is_tree c = c.tree

(* Scratch for one row at a time. Every relaxation pushes at most once
   per directed edge (plus the source), so the heap never grows. *)
type scratch = {
  dist : float array;
  parent : int array; (* Dijkstra predecessor; the walk's came-from vertex *)
  keys : float array;
  verts : int array; (* heap vertices; the walk's stack *)
  mutable size : int;
  mutable pops : int;
}

let scratch c =
  let cap = Array.length c.dst + 1 in
  { dist = Array.make c.n infinity; parent = Array.make c.n (-1);
    keys = Array.make cap 0.; verts = Array.make cap 0; size = 0; pops = 0 }

let push sc key v =
  let keys = sc.keys and verts = sc.verts in
  let i = ref sc.size in
  sc.size <- sc.size + 1;
  while !i > 0 && key < Array.unsafe_get keys ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    Array.unsafe_set keys !i (Array.unsafe_get keys p);
    Array.unsafe_set verts !i (Array.unsafe_get verts p);
    i := p
  done;
  Array.unsafe_set keys !i key;
  Array.unsafe_set verts !i v

(* Drop the root; the last entry sifts down from the top, swapping
   with the smaller child while that child's key is strictly smaller
   (the left child wins ties, as in [Qp_runtime.Event]'s queue). *)
let pop sc =
  let keys = sc.keys and verts = sc.verts in
  let size = sc.size - 1 in
  sc.size <- size;
  sc.pops <- sc.pops + 1;
  let key = Array.unsafe_get keys size and v = Array.unsafe_get verts size in
  let i = ref 0 and c = ref 1 in
  while
    if !c + 1 < size && keys.(!c + 1) < keys.(!c) then incr c;
    !c < size && keys.(!c) < key
  do
    keys.(!i) <- keys.(!c);
    verts.(!i) <- verts.(!c);
    i := !c;
    c := (2 * !c) + 1
  done;
  keys.(!i) <- key;
  verts.(!i) <- v

(* A vertex's pushes have strictly falling keys and all precede its
   first pop, so the entry whose key equals its distance is the one
   that settles it; every other pop is stale. *)
let heap_row c sc src =
  let dist = sc.dist and parent = sc.parent in
  Array.fill dist 0 c.n infinity;
  Array.fill parent 0 c.n (-1);
  dist.(src) <- 0.;
  sc.size <- 0;
  push sc 0. src;
  while sc.size > 0 do
    let d = Array.unsafe_get sc.keys 0 and v = Array.unsafe_get sc.verts 0 in
    pop sc;
    if d = Array.unsafe_get dist v then
      for e = c.off.(v) to c.off.(v + 1) - 1 do
        let w = Array.unsafe_get c.dst e in
        let nd = d +. Array.unsafe_get c.len e in
        if nd < Array.unsafe_get dist w then begin
          Array.unsafe_set dist w nd;
          Array.unsafe_set parent w v;
          push sc nd w
        end
      done
  done

let walk_row c sc src =
  let dist = sc.dist and from = sc.parent and stack = sc.verts in
  dist.(src) <- 0.;
  from.(src) <- -1;
  stack.(0) <- src;
  let top = ref 1 in
  while !top > 0 do
    decr top;
    let v = Array.unsafe_get stack !top in
    let dv = Array.unsafe_get dist v and back = Array.unsafe_get from v in
    for e = c.off.(v) to c.off.(v + 1) - 1 do
      let w = Array.unsafe_get c.dst e in
      if w <> back then begin
        Array.unsafe_set dist w (dv +. Array.unsafe_get c.len e);
        Array.unsafe_set from w v;
        Array.unsafe_set stack !top w;
        incr top
      end
    done
  done

let fill_row c sc src =
  if src < 0 || src >= c.n then invalid_arg "Dijkstra: source out of range";
  if c.tree then walk_row c sc src else heap_row c sc src

let rows ?sources pool c f =
  let m = match sources with Some s -> Array.length s | None -> c.n in
  let chunks = min m (4 * Qp_par.Pool.jobs pool) in
  let per_chunk =
    Qp_par.Pool.parallel_init pool chunks (fun k ->
        let sc = scratch c in
        let ok = ref true and i = ref (k * m / chunks) in
        while !ok && !i < (k + 1) * m / chunks do
          let src = match sources with Some s -> s.(!i) | None -> !i in
          fill_row c sc src;
          ok := f src sc.dist;
          incr i
        done;
        (!ok, sc.pops))
  in
  Array.fold_left (fun (ok, p) (ok', p') -> (ok && ok', p + p')) (true, 0) per_chunk

let distances_with_parents g src =
  let c = csr_of_graph g in
  if src < 0 || src >= c.n then invalid_arg "Dijkstra: source out of range";
  let sc = scratch c in
  heap_row c sc src;
  (sc.dist, sc.parent)

let distances g src = fst (distances_with_parents g src)

let path g src dst =
  let dist, parent = distances_with_parents g src in
  if dist.(dst) = infinity then None
  else begin
    let rec build v acc = if v = src then src :: acc else build parent.(v) (v :: acc) in
    Some (build dst [])
  end
