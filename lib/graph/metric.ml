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

let of_matrix d =
  let n = Array.length d in
  Array.iter (fun row -> if Array.length row <> n then invalid_arg "Metric.of_matrix: not square") d;
  for i = 0 to n - 1 do
    if d.(i).(i) <> 0. then invalid_arg "Metric.of_matrix: non-zero diagonal";
    for j = 0 to n - 1 do
      if not (Float.is_finite d.(i).(j)) then
        invalid_arg "Metric.of_matrix: non-finite distance";
      if d.(i).(j) < 0. then invalid_arg "Metric.of_matrix: negative distance";
      if not (Qp_util.Floatx.approx d.(i).(j) d.(j).(i)) then
        invalid_arg "Metric.of_matrix: not symmetric"
    done
  done;
  let flat = alloc n in
  for i = 0 to n - 1 do
    let off = i * n in
    let row = d.(i) in
    for j = 0 to n - 1 do
      Bigarray.Array1.unsafe_set flat (off + j) (Array.unsafe_get row j)
    done
  done;
  { n; d = flat }

(* ------------------------------------------------------------------ *)
(* APSP cache                                                          *)
(* ------------------------------------------------------------------ *)

(* Bench experiments rebuild structurally identical topologies from
   the same generator seed, each paying a full APSP. A small
   fingerprint-keyed cache shares the metric between them; entries
   store the [t] handle itself — one flat block per distinct topology,
   never a boxed copy — so a hit costs a Hashtbl probe and zero
   allocation. Bounded FIFO so long-lived processes cannot grow it
   without limit; mutex-guarded so worker domains can build metrics
   concurrently. The resident-bytes total is tracked on every
   insert/evict and mirrored into the [qp_apsp_cache_bytes] gauge. *)

type fingerprint = int * (int * int * float) list

let cache_capacity = 16
let cache : (fingerprint, t) Hashtbl.t = Hashtbl.create cache_capacity
let cache_order : fingerprint Queue.t = Queue.create ()
let cache_lock = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0
let cache_partial = ref 0
let cache_bytes = ref 0

let entry_bytes m = 8 * Bigarray.Array1.dim m.d

let publish_cache_bytes () =
  Qp_obs.Metrics.set
    (Qp_obs.Metrics.gauge
       ~help:"Bytes of distance-matrix data resident in the APSP cache"
       (Qp_obs.Metrics.current ()) "qp_apsp_cache_bytes")
    (float_of_int !cache_bytes)

let fingerprint g : fingerprint = (Graph.n_vertices g, Graph.edges g)

let cache_find key =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache key with
      | Some m ->
          incr cache_hits;
          Some m
      | None ->
          incr cache_misses;
          None)

(* Lookup that counts a hit but leaves the miss classification (full
   vs partial) to the caller. *)
let cache_peek key =
  Mutex.protect cache_lock (fun () ->
      match Hashtbl.find_opt cache key with
      | Some m ->
          incr cache_hits;
          Some m
      | None -> None)

let cache_insert key m =
  Mutex.protect cache_lock (fun () ->
      if not (Hashtbl.mem cache key) then begin
        if Hashtbl.length cache >= cache_capacity then begin
          let victim = Queue.pop cache_order in
          (match Hashtbl.find_opt cache victim with
          | Some old -> cache_bytes := !cache_bytes - entry_bytes old
          | None -> ());
          Hashtbl.remove cache victim
        end;
        Hashtbl.add cache key m;
        Queue.push key cache_order;
        cache_bytes := !cache_bytes + entry_bytes m;
        publish_cache_bytes ()
      end)

let apsp_cache_stats () = (!cache_hits, !cache_misses, !cache_partial)

let apsp_cache_bytes () = Mutex.protect cache_lock (fun () -> !cache_bytes)

let reset_apsp_cache () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.reset cache;
      Queue.clear cache_order;
      cache_hits := 0;
      cache_misses := 0;
      cache_partial := 0;
      cache_bytes := 0;
      publish_cache_bytes ())

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

let compute_apsp g =
  let n = Graph.n_vertices g in
  let d = alloc n in
  if n >= fw_min_nodes && density g >= fw_min_density then
    Apsp.floyd_warshall_into g d
  else Apsp.repeated_dijkstra_into g d;
  { n; d }

let of_graph ?(cache = true) g =
  if not (Graph.is_connected g) then invalid_arg "Metric.of_graph: disconnected graph";
  if not cache then compute_apsp g
  else begin
    let key = fingerprint g in
    match cache_find key with
    | Some m -> m
    | None ->
        (* Compute outside the lock: APSP dominates, and a racing
           duplicate computation is deterministic so either copy may
           land in the cache. *)
        let m = compute_apsp g in
        cache_insert key m;
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
  let full ~count_miss =
    if count_miss then
      Mutex.protect cache_lock (fun () -> incr cache_misses);
    let m = compute_apsp g in
    if cache then cache_insert (fingerprint g) m;
    m
  in
  if n <> base.n || n <> Graph.n_vertices base_graph then full ~count_miss:true
  else begin
    let key = fingerprint g in
    let cached = if cache then cache_peek key else None in
    match cached with
    | Some m -> m
    | None -> (
        let deltas = classify_deltas (Graph.edges base_graph) (Graph.edges g) in
        match deltas with
        | [] -> { n; d = base.d }
        | _ when List.length deltas > max_incremental_deltas ->
            full ~count_miss:true
        | _ ->
            Mutex.protect cache_lock (fun () -> incr cache_partial);
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
                    let c = Dijkstra.csr_of_edges n (Array.of_list !work) in
                    let _, pops =
                      Dijkstra.rows ~sources:(Array.of_list rows)
                        (Qp_par.Pool.default ()) c (fun i row ->
                          for j = 0 to n - 1 do
                            Bigarray.Array1.unsafe_set d ((i * n) + j)
                              (Array.unsafe_get row j)
                          done;
                          true)
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
            if cache then cache_insert key { n; d };
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

let pp ppf t = Format.fprintf ppf "metric(n=%d, diam=%.3f)" t.n (diameter t)
