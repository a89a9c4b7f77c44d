(* The flat shortest-path kernel (see the .mli): CSR adjacency in
   [Graph] list order, an unboxed heap with the tie rules of the event
   queue in [Qp_runtime.Event] (strict [<] in sift-up, the left child
   winning ties in sift-down), and on a tree one preorder: a row takes
   each vertex from its neighbour toward the source, d(s,w) =
   d(s,v) + len(v,w) along the unique path, the very float sum
   Dijkstra forms when it relaxes w from v. *)

type mat = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type csr = {
  n : int;
  off : int array; (* neighbours of v at off.(v) .. off.(v + 1) - 1 *)
  dst : int array;
  len : float array;
  tree : bool; (* connected with n - 1 edges: rows come from the preorder *)
}

(* The connectivity half of the tree test belongs here: a disconnected
   graph with n - 1 edges has a cycle the tree kernel would never
   leave. *)
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

let is_tree c = c.tree

(* ------------------------------------------------------------------ *)
(* Trees: one preorder                                                 *)
(* ------------------------------------------------------------------ *)

(* Indexed by preorder position i: the vertex there, its parent and
   the length of the edge between them, and its subtree's size, so the
   subtree of order.(i) is positions i .. i + size.(i) - 1. *)
type rooted = {
  pos : int array; (* preorder position of each vertex *)
  order : int array; (* order.(0) = 0, the root *)
  up : int array;
  ulen : float array;
  size : int array;
}

let rooted_of_parents parent len =
  let n = Array.length parent in
  let bad () = invalid_arg "Dijkstra.rooted_of_parents: not a tree rooted at 0" in
  if Array.length len <> n || (n > 0 && parent.(0) <> -1) then bad ();
  let kids = Array.make n [] in
  for c = n - 1 downto 1 do
    if parent.(c) >= 0 then kids.(parent.(c)) <- c :: kids.(parent.(c))
  done;
  (* Each vertex sits in one child list, so none is visited twice; one
     that [0] does not reach leaves [k < n]. *)
  let pos = Array.make n 0 and order = Array.make n 0 and k = ref 0 in
  let rec visit v =
    pos.(v) <- !k;
    order.(!k) <- v;
    incr k;
    List.iter visit kids.(v)
  in
  if n > 0 then visit 0;
  if !k <> n then bad ();
  let up = Array.map (fun v -> parent.(v)) order
  and ulen = Array.map (fun v -> len.(v)) order
  and size = Array.make n 1 in
  for i = n - 1 downto 1 do
    let p = pos.(up.(i)) in
    size.(p) <- size.(p) + size.(i)
  done;
  { pos; order; up; ulen; size }

(* A tree CSR rooted at 0: each vertex's parent and the length of the
   edge to it. [Graph.add_edge] gives both directions one length. *)
let root c =
  let parent = Array.make c.n (-1) and len = Array.make c.n 0. in
  let stack = Array.make c.n 0 and top = ref (min c.n 1) in
  while !top > 0 do
    decr top;
    let v = stack.(!top) in
    for e = c.off.(v) to c.off.(v + 1) - 1 do
      let w = c.dst.(e) in
      if w <> parent.(v) then begin
        parent.(w) <- v;
        len.(w) <- c.len.(e);
        stack.(!top) <- w;
        incr top
      end
    done
  done;
  rooted_of_parents parent len

(* The test of the tree check: |x - dm| > tol·max(1, dm) fails, where
   [if dm > 1. then dm else 1.] is [Float.max 1. dm] for every non-NaN
   dm, without its sign-bit calls; a NaN dm makes the difference NaN,
   which passes either way. *)
let[@inline] agrees (m : mat) moff tol v x =
  let dm = Bigarray.Array1.unsafe_get m (moff + v) in
  not (Float.abs (x -. dm) > tol *. if dm > 1. then dm else 1.)

(* Row [s] into [out] from [off]: first up the path from s to the root,
   each ancestor from its child toward s, then down the preorder,
   every other vertex w from its parent, already set because a parent
   precedes its children. w is an ancestor of s iff pre(w) <= pre(s) <
   pre(w) + size(w). With [check], each entry is compared with entry
   (s, v) of [m] as it is produced, and the row stops at the first
   that fails [agrees]. *)
let tree_row t ~check (m : mat) tol (out : mat) off s =
  let order = t.order and up = t.up and ulen = t.ulen and pos = t.pos in
  let size = t.size and n = Array.length t.order in
  let moff = s * n and ps = pos.(s) in
  Bigarray.Array1.unsafe_set out (off + s) 0.;
  let ok = ref ((not check) || agrees m moff tol s 0.) in
  let i = ref ps in
  while !ok && !i > 0 do
    let p = Array.unsafe_get up !i in
    let x =
      Bigarray.Array1.unsafe_get out (off + Array.unsafe_get order !i)
      +. Array.unsafe_get ulen !i
    in
    Bigarray.Array1.unsafe_set out (off + p) x;
    ok := (not check) || agrees m moff tol p x;
    i := Array.unsafe_get pos p
  done;
  let i = ref 1 in
  while !ok && !i < n do
    let j = !i in
    if ps < j || ps >= j + Array.unsafe_get size j then begin
      let w = Array.unsafe_get order j in
      let x =
        Bigarray.Array1.unsafe_get out (off + Array.unsafe_get up j)
        +. Array.unsafe_get ulen j
      in
      Bigarray.Array1.unsafe_set out (off + w) x;
      ok := (not check) || agrees m moff tol w x
    end;
    i := j + 1
  done;
  !ok

(* [m] rows split into at most four chunks per worker; [f lo hi] runs
   the rows lo .. hi - 1 of one chunk. *)
let in_chunks pool m f =
  let chunks = min m (4 * Qp_par.Pool.jobs pool) in
  Qp_par.Pool.parallel_init pool chunks (fun k -> f (k * m / chunks) ((k + 1) * m / chunks))

let tree_agrees pool t (m : mat) ~tol =
  let n = Array.length t.order in
  if Bigarray.Array1.dim m <> n * n then
    invalid_arg "Dijkstra.tree_agrees: matrix dimension mismatch";
  Array.for_all Fun.id
    (in_chunks pool n (fun lo hi ->
         let row = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
         let ok = ref true and s = ref lo in
         while !ok && !s < hi do
           ok := tree_row t ~check:true m tol row 0 !s;
           incr s
         done;
         !ok))

(* ------------------------------------------------------------------ *)
(* The heap                                                            *)
(* ------------------------------------------------------------------ *)

(* Scratch for one row at a time. Every relaxation pushes at most once
   per directed edge (plus the source), so the heap never grows. *)
type scratch = {
  dist : float array;
  parent : int array; (* Dijkstra predecessor *)
  keys : float array;
  verts : int array;
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

let rows_into ?sources pool c (d : mat) =
  let n = c.n in
  if Bigarray.Array1.dim d <> n * n then
    invalid_arg "Dijkstra.rows_into: matrix dimension mismatch";
  let srcs = match sources with Some s -> s | None -> Array.init n Fun.id in
  Array.iter
    (fun s -> if s < 0 || s >= n then invalid_arg "Dijkstra: source out of range")
    srcs;
  let chunked f = in_chunks pool (Array.length srcs) f in
  if c.tree then begin
    let t = root c in
    ignore
      (chunked (fun lo hi ->
           for i = lo to hi - 1 do
             let s = srcs.(i) in
             ignore (tree_row t ~check:false d 0. d (s * n) s)
           done));
    0
  end
  else
    Array.fold_left ( + ) 0
      (chunked (fun lo hi ->
           let sc = scratch c in
           for i = lo to hi - 1 do
             let s = srcs.(i) in
             heap_row c sc s;
             for j = 0 to n - 1 do
               Bigarray.Array1.unsafe_set d ((s * n) + j) (Array.unsafe_get sc.dist j)
             done
           done;
           sc.pops))

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
