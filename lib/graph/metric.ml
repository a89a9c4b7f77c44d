(* Distances live in one flat row-major Bigarray (float64): entry
   (i, j) at index i*n + j. Compared to the previous boxed
   [float array array], a 10^4-node metric is a single 800 MB block
   instead of 10^4 heap arrays the GC must trace, [submetric]/[scale]
   are straight-line loops, and rows can be handed to worker domains
   as disjoint slices of shared memory. Matrices are immutable by
   convention — every mutating operation works on a fresh copy — so
   handles can be shared freely across domains and cache entries. *)

type mat = Apsp.mat

type t = { n : int; d : mat }

let size t = t.n

(* Per-axis bounds checks: the flat index i*n + j can land inside the
   buffer even when j (or i) is out of range, silently reading a cell
   of the wrong row — so Bigarray's own range check is not enough. *)
let dist t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg
      (Printf.sprintf "Metric.dist: index (%d, %d) out of bounds for n=%d" i j
         t.n);
  Bigarray.Array1.unsafe_get t.d ((i * t.n) + j)

let unsafe_dist t i j = Bigarray.Array1.unsafe_get t.d ((i * t.n) + j)

let alloc n : mat =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (n * n)

let copy_mat (d : mat) : mat =
  let c =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
      (Bigarray.Array1.dim d)
  in
  Bigarray.Array1.blit d c;
  c

(* ------------------------------------------------------------------ *)
(* Whole-matrix scans                                                  *)
(* ------------------------------------------------------------------ *)

(* The O(n^2) passes that callers in other modules would otherwise run
   one [dist] call per entry. Each is a plain loop over the flat
   Bigarray here, with the iteration order, tie rules and float sums of
   the per-entry loop it replaces, so it returns the same defect,
   parents, verdict or bits. *)

type defect = Non_finite | Negative | Asymmetric | Nonzero_diagonal

(* Row by row: the diagonal entry (non-finite before non-zero), then
   each off-diagonal (i, j), j > i — or every j <> i with [~lower] — as
   non-finite, negative, or not within [Floatx.approx] of (j, i).

   [Floatx.approx a b] is c <= eps·max(1, |a|, |b|) with c = |a - b|
   and [Float.max], whose sign-bit tests are C calls. With eps > 0,
   rounding is monotone, so eps·max(x, y, z) is the largest of eps·x,
   eps·y and eps·z, and the test is c <= eps || c <= eps·|a| ||
   c <= eps·|b|: the same verdict on every input (a NaN operand makes
   c NaN, false either way), and mostly decided by its first
   comparison. *)
let first_defect ?(lower = false) t =
  let n = t.n and d = t.d in
  let eps = Qp_util.Floatx.eps in
  let exception Found of defect * int * int in
  try
    for i = 0 to n - 1 do
      let irow = i * n in
      let dii = Bigarray.Array1.unsafe_get d (irow + i) in
      if not (Float.is_finite dii) then raise (Found (Non_finite, i, i));
      if dii <> 0. then raise (Found (Nonzero_diagonal, i, i));
      for j = (if lower then 0 else i + 1) to n - 1 do
        if j <> i then begin
          let dij = Bigarray.Array1.unsafe_get d (irow + j)
          and dji = Bigarray.Array1.unsafe_get d ((j * n) + i) in
          if not (Float.is_finite dij) then raise (Found (Non_finite, i, j));
          if dij < 0. then raise (Found (Negative, i, j));
          let c = Float.abs (dij -. dji) in
          if not (c <= eps || c <= eps *. Float.abs dij || c <= eps *. Float.abs dji)
          then raise (Found (Asymmetric, i, j))
        end
      done
    done;
    None
  with Found (defect, i, j) -> Some (defect, i, j)

let of_matrix_unchecked d =
  let n = Array.length d in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Metric.of_matrix: not square") d;
  let flat = alloc n in
  for i = 0 to n - 1 do
    let off = i * n in
    let row = d.(i) in
    for j = 0 to n - 1 do
      Bigarray.Array1.unsafe_set flat (off + j) (Array.unsafe_get row j)
    done
  done;
  { n; d = flat }

let of_matrix d =
  let t = of_matrix_unchecked d in
  match first_defect ~lower:true t with
  | None -> t
  | Some (Nonzero_diagonal, _, _) -> invalid_arg "Metric.of_matrix: non-zero diagonal"
  (* A non-finite diagonal entry fails the [<> 0.] test too. *)
  | Some (Non_finite, i, j) when i = j ->
      invalid_arg "Metric.of_matrix: non-zero diagonal"
  | Some (Non_finite, _, _) -> invalid_arg "Metric.of_matrix: non-finite distance"
  | Some (Negative, _, _) -> invalid_arg "Metric.of_matrix: negative distance"
  | Some (Asymmetric, _, _) -> invalid_arg "Metric.of_matrix: not symmetric"

(* Minimum spanning tree of the complete distance graph (Prim, O(n^2)):
   the first vertex of least key joins next, and a key drops only on a
   strictly shorter edge. One pass per joined vertex lowers the keys
   through it and picks the next vertex: each key is final for this
   round before it is compared, so the pick is the one a separate scan
   after the updates would make. *)
let mst_parent t =
  let n = t.n and d = t.d in
  let parent = Array.make n (-1) in
  if n > 1 then begin
    let in_tree = Array.make n false in
    let best = Array.make n infinity in
    let best_from = Array.make n 0 in
    in_tree.(0) <- true;
    let u = ref 0 in
    for v = 1 to n - 1 do
      best.(v) <- Bigarray.Array1.unsafe_get d v;
      if v = 1 || best.(v) < best.(!u) then u := v
    done;
    for _ = 2 to n - 1 do
      let joined = !u in
      in_tree.(joined) <- true;
      parent.(joined) <- best_from.(joined);
      let urow = joined * n in
      u := -1;
      for v = 0 to n - 1 do
        if not (Array.unsafe_get in_tree v) then begin
          let duv = Bigarray.Array1.unsafe_get d (urow + v) in
          if duv < Array.unsafe_get best v then begin
            Array.unsafe_set best v duv;
            Array.unsafe_set best_from v joined
          end;
          if !u < 0 || Array.unsafe_get best v < Array.unsafe_get best !u then u := v
        end
      done
    done;
    parent.(!u) <- best_from.(!u)
  end;
  parent

(* The tree of [parent] with edge {parent c, c} of length d(parent c, c)
   in both directions, its path metric formed by the APSP's tree
   kernel and compared with the matrix as each entry is produced. *)
let agrees_with_tree ?pool t parent ~tol =
  let pool = match pool with Some p -> p | None -> Qp_par.Pool.default () in
  if Array.length parent <> t.n then
    invalid_arg "Metric.agrees_with_tree: parent array of the wrong size";
  let len =
    Array.mapi
      (fun c p -> if p < 0 then 0. else Bigarray.Array1.get t.d ((p * t.n) + c))
      parent
  in
  Dijkstra.tree_agrees pool (Dijkstra.rooted_of_parents parent len) t.d ~tol

let weighted_max_sum t rates a b =
  let n = t.n and d = t.d in
  if a < 0 || a >= n || b < 0 || b >= n || Array.length rates <> n then
    invalid_arg "Metric.weighted_max_sum: vertex or rates out of range";
  let acc = ref 0. in
  for v = 0 to n - 1 do
    let r = Array.unsafe_get rates v in
    if r > 0. then
      acc :=
        !acc
        +. r
           *. Float.max
                (Bigarray.Array1.unsafe_get d ((v * n) + a))
                (Bigarray.Array1.unsafe_get d ((v * n) + b))
  done;
  !acc

(* Row v adds r_v·d(v,a) into every a, rows in increasing v from 0.:
   per a the operations of [weighted_max_sum t rates a a], since
   [Float.max x x = x], read row by row instead of one column each. *)
let one_center_sums t rates =
  let n = t.n and d = t.d in
  if Array.length rates <> n then
    invalid_arg "Metric.one_center_sums: rates out of range";
  let acc = Array.make n 0. in
  for v = 0 to n - 1 do
    let r = Array.unsafe_get rates v and vrow = v * n in
    if r > 0. then
      for a = 0 to n - 1 do
        Array.unsafe_set acc a
          (Array.unsafe_get acc a +. (r *. Bigarray.Array1.unsafe_get d (vrow + a)))
      done
  done;
  acc

(* [Float.max] and the sum in member order from 0., as the per-member
   [dist] loops they replace, so every result is bit-identical. *)
let quorum_delay t ~total v f q =
  let n = t.n and d = t.d in
  if v < 0 || v >= n then
    invalid_arg (Printf.sprintf "Metric.quorum_delay: vertex %d out of bounds for n=%d" v n);
  let vrow = v * n in
  let acc = ref 0. in
  for i = 0 to Array.length q - 1 do
    let w = f.(q.(i)) in
    if w < 0 || w >= n then
      invalid_arg (Printf.sprintf "Metric.quorum_delay: node %d out of bounds for n=%d" w n);
    let dvw = Bigarray.Array1.unsafe_get d (vrow + w) in
    acc := if total then !acc +. dvw else Float.max !acc dvw
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* APSP cache                                                          *)
(* ------------------------------------------------------------------ *)

(* Bench experiments rebuild structurally identical topologies from
   the same generator seed, each paying a full APSP. A small
   fingerprint-keyed cache shares the metric between them; entries
   store the [t] handle itself — one flat block per distinct topology,
   never a boxed copy — so a hit costs a Hashtbl probe and zero
   allocation. A FIFO bounded both in entries and in bytes, so a
   long-lived process answering a stream of distinct large instances
   holds at most [apsp_cache_budget_bytes] of metrics it will never look up
   again; mutex-guarded so worker domains can build metrics
   concurrently. The resident-bytes total is tracked on every
   insert/evict and mirrored into the [qp_apsp_cache_bytes] gauge.

   The cache in use is domain-local: the process-wide one unless
   [with_private_apsp_cache] scopes a fresh one, which a [Qp_par.Pool]
   context hook carries into the scope's pool tasks. A unit of work
   whose counters must not depend on what ran before or beside it (one
   bench experiment) runs in a scope of its own. *)

type fingerprint = int * (int * int * float) list

type cache = {
  entries : (fingerprint, t) Hashtbl.t;
  order : fingerprint Queue.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable partial : int;
  mutable bytes : int;
  budget : int;
}

let cache_capacity = 16

(* 256 MB: E19's whole tree series (n = 60 .. 3840, 157 MB) stays
   resident, while two of its largest metrics (118 MB each) are about
   as many as fit. *)
let apsp_cache_budget_bytes = 256 * 1024 * 1024

let new_cache budget =
  { entries = Hashtbl.create cache_capacity; order = Queue.create ();
    lock = Mutex.create (); hits = 0; misses = 0; partial = 0; bytes = 0; budget }

let process_cache = new_cache apsp_cache_budget_bytes
let cache_key : cache Domain.DLS.key = Domain.DLS.new_key (fun () -> process_cache)
let current_cache () = Domain.DLS.get cache_key

let with_cache c f =
  let prev = Domain.DLS.get cache_key in
  Domain.DLS.set cache_key c;
  Fun.protect ~finally:(fun () -> Domain.DLS.set cache_key prev) f

let with_private_apsp_cache ?(budget_bytes = apsp_cache_budget_bytes) f =
  with_cache (new_cache budget_bytes) f

let () =
  Qp_par.Pool.register_context_hook (fun () ->
      let c = current_cache () in
      fun thunk -> with_cache c thunk)

let entry_bytes m = 8 * Bigarray.Array1.dim m.d

let publish_cache_bytes c =
  Qp_obs.Metrics.set
    (Qp_obs.Metrics.gauge
       ~help:"Bytes of distance-matrix data resident in the APSP cache"
       (Qp_obs.Metrics.current ()) "qp_apsp_cache_bytes")
    (float_of_int c.bytes)

let fingerprint g : fingerprint = (Graph.n_vertices g, Graph.edges g)

let count_miss c = Mutex.protect c.lock (fun () -> c.misses <- c.misses + 1)

(* Lookup that counts a hit but leaves the miss classification (full
   vs partial) to the caller. *)
let cache_peek c key =
  Mutex.protect c.lock (fun () ->
      match Hashtbl.find_opt c.entries key with
      | Some m ->
          c.hits <- c.hits + 1;
          Some m
      | None -> None)

(* A metric larger than the whole budget is not cached; otherwise the
   oldest entries leave until the new one fits both bounds. *)
let cache_insert c key m =
  let bytes = entry_bytes m in
  Mutex.protect c.lock (fun () ->
      if bytes <= c.budget && not (Hashtbl.mem c.entries key) then begin
        while Hashtbl.length c.entries >= cache_capacity || c.bytes + bytes > c.budget do
          let victim = Queue.pop c.order in
          (match Hashtbl.find_opt c.entries victim with
          | Some old -> c.bytes <- c.bytes - entry_bytes old
          | None -> ());
          Hashtbl.remove c.entries victim
        done;
        Hashtbl.add c.entries key m;
        Queue.push key c.order;
        c.bytes <- c.bytes + bytes;
        publish_cache_bytes c
      end)

let apsp_cache_stats () =
  let c = current_cache () in
  (c.hits, c.misses, c.partial)

let apsp_cache_bytes () =
  let c = current_cache () in
  Mutex.protect c.lock (fun () -> c.bytes)

let reset_apsp_cache () =
  let c = current_cache () in
  Mutex.protect c.lock (fun () ->
      Hashtbl.reset c.entries;
      Queue.clear c.order;
      c.hits <- 0;
      c.misses <- 0;
      c.partial <- 0;
      c.bytes <- 0;
      publish_cache_bytes c)

(* ------------------------------------------------------------------ *)
(* APSP algorithm selection                                            *)
(* ------------------------------------------------------------------ *)

(* Repeated Dijkstra costs O(n·m log n); blocked Floyd–Warshall is a
   branch-light O(n³) over the flat matrix. On dense graphs
   (m ≈ n²/2) Dijkstra's log factor and heap traffic lose, so switch
   to FW there. The n ≥ 256 floor keeps every seed-size instance on
   the historical Dijkstra path: the two algorithms round
   intermediate sums differently, and solver outputs at seed sizes
   must stay byte-identical across PRs. *)
let fw_min_nodes = 256
let fw_min_density = 0.5

let density g =
  let n = Graph.n_vertices g in
  if n < 2 then 0.
  else
    float_of_int (Graph.n_edges g) /. (float_of_int n *. float_of_int (n - 1) /. 2.)

(* Connectivity is read off the result: a disconnected graph leaves an
   infinite distance in row 0. So an APSP runs no separate
   connectivity pass beside the one the row kernel's tree test makes
   on a graph with n - 1 edges. *)
let compute_apsp g =
  let n = Graph.n_vertices g in
  let d = alloc n in
  if n >= fw_min_nodes && density g >= fw_min_density then
    Apsp.floyd_warshall_into g d
  else Apsp.repeated_dijkstra_into g d;
  for v = 0 to n - 1 do
    if Bigarray.Array1.unsafe_get d v = infinity then
      invalid_arg "Metric.of_graph: disconnected graph"
  done;
  { n; d }

let of_graph ?(cache = true) g =
  if not cache then compute_apsp g
  else begin
    (* Only connected graphs are ever inserted, so a hit needs no
       connectivity test. *)
    let c = current_cache () in
    let key = fingerprint g in
    match cache_peek c key with
    | Some m -> m
    | None ->
        (* Compute outside the lock: APSP dominates, and a racing
           duplicate computation is deterministic so either copy may
           land in the cache. *)
        let m = compute_apsp g in
        count_miss c;
        cache_insert c key m;
        m
  end

(* ------------------------------------------------------------------ *)
(* Incremental APSP under edge deltas                                  *)
(* ------------------------------------------------------------------ *)

(* A single-edge length decrease (or edge insertion) updates the
   matrix exactly with one O(n^2) relaxation through the new edge. An
   increase (or removal) can only lengthen paths that ran through the
   edge, so only the rows whose shortest-path tree used it need a
   fresh Dijkstra; the remaining rows are provably unchanged. Deltas
   are applied one edge at a time through a working copy, insertions
   and decreases first so every intermediate graph is a supergraph of
   the (connected) final graph. *)

let relax_through_edge (d : mat) n u v w =
  for i = 0 to n - 1 do
    let irow = i * n in
    let diu = Bigarray.Array1.unsafe_get d (irow + u)
    and div = Bigarray.Array1.unsafe_get d (irow + v) in
    let vrow = v * n and urow = u * n in
    for j = 0 to n - 1 do
      let via =
        Float.min
          (diu +. w +. Bigarray.Array1.unsafe_get d (vrow + j))
          (div +. w +. Bigarray.Array1.unsafe_get d (urow + j))
      in
      if via < Bigarray.Array1.unsafe_get d (irow + j) then
        Bigarray.Array1.unsafe_set d (irow + j) via
    done
  done

(* Rows whose distance to some vertex may have used edge {u,v} at
   length [w_old]: row i is affected iff for some k,
   d(i,k) = d(i,u) + w_old + d(v,k) (or the symmetric form). The eps
   absorbs float summation noise; false positives only cost an extra
   row recompute, never correctness. *)
let affected_rows (d : mat) n u v w_old =
  let eps = 1e-9 in
  let rows = ref [] in
  for i = n - 1 downto 0 do
    let irow = i * n in
    let diu = Bigarray.Array1.unsafe_get d (irow + u)
    and div = Bigarray.Array1.unsafe_get d (irow + v) in
    let vrow = v * n and urow = u * n in
    let hit = ref false in
    let k = ref 0 in
    while (not !hit) && !k < n do
      let dk = Bigarray.Array1.unsafe_get d (irow + !k) in
      if
        dk >= diu +. w_old +. Bigarray.Array1.unsafe_get d (vrow + !k) -. eps
        || dk >= div +. w_old +. Bigarray.Array1.unsafe_get d (urow + !k) -. eps
      then hit := true;
      incr k
    done;
    if !hit then rows := i :: !rows
  done;
  !rows

type edge_delta =
  | Relaxing of int * int * float (* insertion or length decrease *)
  | Tightening of int * int * float (* removal or length increase: old length *)

let classify_deltas old_edges new_edges =
  let tbl_of es =
    let h = Hashtbl.create (List.length es) in
    List.iter (fun (u, v, w) -> Hashtbl.replace h (u, v) w) es;
    h
  in
  let old_t = tbl_of old_edges and new_t = tbl_of new_edges in
  let deltas = ref [] in
  Hashtbl.iter
    (fun (u, v) w_new ->
      match Hashtbl.find_opt old_t (u, v) with
      | None -> deltas := Relaxing (u, v, w_new) :: !deltas
      | Some w_old ->
          if w_new < w_old then deltas := Relaxing (u, v, w_new) :: !deltas
          else if w_new > w_old then
            deltas := Tightening (u, v, w_old) :: !deltas)
    new_t;
  Hashtbl.iter
    (fun (u, v) w_old ->
      if not (Hashtbl.mem new_t (u, v)) then
        deltas := Tightening (u, v, w_old) :: !deltas)
    old_t;
  (* Deterministic order: relaxations first (keeps intermediates
     connected), then by endpoints. *)
  List.sort
    (fun a b ->
      match (a, b) with
      | Relaxing _, Tightening _ -> -1
      | Tightening _, Relaxing _ -> 1
      | Relaxing (u, v, w), Relaxing (u', v', w')
      | Tightening (u, v, w), Tightening (u', v', w') ->
          compare (u, v, w) (u', v', w'))
    !deltas

(* Beyond this many changed edges a fresh APSP is cheaper than the
   per-edge affected-row scans. *)
let max_incremental_deltas = 8

let of_graph_delta ?(cache = true) ~base ~base_graph g =
  let n = Graph.n_vertices g in
  if not (Graph.is_connected g) then
    invalid_arg "Metric.of_graph_delta: disconnected graph";
  let c = current_cache () in
  let full () =
    count_miss c;
    let m = compute_apsp g in
    if cache then cache_insert c (fingerprint g) m;
    m
  in
  if n <> base.n || n <> Graph.n_vertices base_graph then full ()
  else begin
    let key = fingerprint g in
    let cached = if cache then cache_peek c key else None in
    match cached with
    | Some m -> m
    | None -> (
        let deltas = classify_deltas (Graph.edges base_graph) (Graph.edges g) in
        match deltas with
        | [] -> { n; d = base.d }
        | _ when List.length deltas > max_incremental_deltas -> full ()
        | _ ->
            Mutex.protect c.lock (fun () -> c.partial <- c.partial + 1);
            let d = copy_mat base.d in
            (* Working edge set matching [d], so the rows recomputed
               after a tightening see the right lengths. *)
            let work = ref (Graph.edges base_graph) in
            let heap_pops = ref 0 and tree_rows = ref 0 in
            List.iter
              (fun delta ->
                match delta with
                | Relaxing (u, v, w) ->
                    work :=
                      (u, v, w)
                      :: List.filter (fun (a, b, _) -> (a, b) <> (u, v)) !work;
                    relax_through_edge d n u v w
                | Tightening (u, v, w_old) ->
                    let rows = affected_rows d n u v w_old in
                    let keep = List.filter (fun (a, b, _) -> (a, b) <> (u, v)) !work in
                    work :=
                      (match Graph.edge_length g u v with
                      | Some w_new -> (u, v, w_new) :: keep
                      | None -> keep);
                    let c = Dijkstra.csr_of_graph (Graph.of_edges n !work) in
                    let pops =
                      Dijkstra.rows_into ~sources:(Array.of_list rows)
                        (Qp_par.Pool.default ()) c d
                    in
                    heap_pops := !heap_pops + pops;
                    if Dijkstra.is_tree c then tree_rows := !tree_rows + List.length rows;
                    (* Restore exact symmetry: column entries of
                       recomputed rows. *)
                    List.iter
                      (fun i ->
                        for j = 0 to n - 1 do
                          Bigarray.Array1.unsafe_set d ((j * n) + i)
                            (Bigarray.Array1.unsafe_get d ((i * n) + j))
                        done)
                      rows)
              deltas;
            Apsp.record_work ~heap_pops:!heap_pops ~tree_rows:!tree_rows;
            if cache then cache_insert c key { n; d };
            { n; d })
  end

(* ------------------------------------------------------------------ *)
(* Triangle-inequality validation                                      *)
(* ------------------------------------------------------------------ *)

(* The O(n³) scan is fanned out over the pool one i-row per element.
   Determinism: each row worker scans (j, k) in sequential order, so a
   row's local answer is its lexicographically-least violation; the
   fold below then takes the least violating row. The shared
   [best_row] atomic only lets workers skip rows strictly above a row
   already known to violate — such rows can never be the final answer
   (a smaller violating row exists), so racy pruning cannot change
   the result, only save work. *)
let check_triangle ?(tol = Qp_util.Floatx.eps) ?pool t =
  let pool = match pool with Some p -> p | None -> Qp_par.Pool.default () in
  let n = t.n in
  let d = t.d in
  let best_row = Atomic.make max_int in
  let scan_row i =
    if i > Atomic.get best_row then None
    else begin
      let irow = i * n in
      let found = ref None in
      (try
         for j = 0 to n - 1 do
           let dij = Bigarray.Array1.unsafe_get d (irow + j) in
           let jrow = j * n in
           for k = 0 to n - 1 do
             if
               Bigarray.Array1.unsafe_get d (irow + k)
               > dij +. Bigarray.Array1.unsafe_get d (jrow + k) +. tol
             then begin
               found := Some (i, j, k);
               raise Exit
             end
           done
         done
       with Exit -> ());
      (match !found with
      | Some _ ->
          (* Atomic min: publish i as an upper bound for later rows. *)
          let rec lower () =
            let cur = Atomic.get best_row in
            if i < cur && not (Atomic.compare_and_set best_row cur i) then
              lower ()
          in
          lower ()
      | None -> ());
      !found
    end
  in
  let per_row = Qp_par.Pool.parallel_init pool n scan_row in
  Array.fold_left
    (fun acc r -> match acc with Some _ -> acc | None -> r)
    None per_row

let nodes_by_distance t v0 =
  let order = Array.init t.n (fun i -> i) in
  let row = v0 * t.n in
  Array.sort
    (fun a b ->
      let c =
        compare
          (Bigarray.Array1.get t.d (row + a))
          (Bigarray.Array1.get t.d (row + b))
      in
      if c <> 0 then c else compare a b)
    order;
  order

let diameter t =
  let best = ref 0. in
  for i = 0 to t.n - 1 do
    let irow = i * t.n in
    for j = i + 1 to t.n - 1 do
      let dij = Bigarray.Array1.unsafe_get t.d (irow + j) in
      if dij > !best then best := dij
    done
  done;
  !best

let average_distance t v0 =
  if t.n = 0 then 0.
  else begin
    let sum = ref 0. in
    for v = 0 to t.n - 1 do
      sum := !sum +. Bigarray.Array1.unsafe_get t.d ((v * t.n) + v0)
    done;
    !sum /. float_of_int t.n
  end

let scale t factor =
  if factor <= 0. then invalid_arg "Metric.scale: non-positive factor";
  let d = alloc t.n in
  for idx = 0 to Bigarray.Array1.dim t.d - 1 do
    Bigarray.Array1.unsafe_set d idx
      (Bigarray.Array1.unsafe_get t.d idx *. factor)
  done;
  { n = t.n; d }

let submetric t keep =
  let k = Array.length keep in
  Array.iter (fun v -> if v < 0 || v >= t.n then invalid_arg "Metric.submetric: vertex out of range") keep;
  let d = alloc k in
  for i = 0 to k - 1 do
    let src = keep.(i) * t.n and dst = i * k in
    for j = 0 to k - 1 do
      Bigarray.Array1.unsafe_set d (dst + j)
        (Bigarray.Array1.unsafe_get t.d (src + keep.(j)))
    done
  done;
  { n = k; d }
