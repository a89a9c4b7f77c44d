type mat = Dijkstra.mat

let record_work ~heap_pops ~tree_rows =
  let add name help v =
    Qp_obs.Metrics.(add (counter ~help (current ()) name) (float_of_int v))
  in
  add "qp_apsp_heap_pops_total" "Shortest-path heap pops" heap_pops;
  add "qp_apsp_tree_rows_total" "Shortest-path rows walked on a tree" tree_rows

let repeated_dijkstra_into ?pool g (d : mat) =
  let pool = match pool with Some p -> p | None -> Qp_par.Pool.default () in
  let n = Graph.n_vertices g in
  if Bigarray.Array1.dim d <> n * n then
    invalid_arg "Apsp.repeated_dijkstra_into: matrix dimension mismatch";
  (* Each source writes only its own row, so concurrent chunks touch
     disjoint slices of the shared flat matrix. *)
  let c = Dijkstra.csr_of_graph g in
  let heap_pops = Dijkstra.rows_into pool c d in
  record_work ~heap_pops ~tree_rows:(if Dijkstra.is_tree c then n else 0)

let floyd_warshall g =
  let n = Graph.n_vertices g in
  let d = Array.make_matrix n n infinity in
  for i = 0 to n - 1 do
    d.(i).(i) <- 0.
  done;
  Graph.iter_edges g (fun u v len ->
      if len < d.(u).(v) then begin
        d.(u).(v) <- len;
        d.(v).(u) <- len
      end);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = d.(i).(k) in
      if dik < infinity then
        for j = 0 to n - 1 do
          let via = dik +. d.(k).(j) in
          if via < d.(i).(j) then d.(i).(j) <- via
        done
    done
  done;
  d

(* ------------------------------------------------------------------ *)
(* Blocked Floyd–Warshall on the flat layout                           *)
(* ------------------------------------------------------------------ *)

(* The classic three-phase tiling: for each diagonal block K, (1) close
   K against itself, (2) close K's block-row and block-column against
   K, (3) close every remaining tile (I,J) against (I,K) and (K,J).
   Within one phase the tiles only read tiles finished in an earlier
   phase plus themselves, so the tiles of a phase can run on the domain
   pool in any order — the result is bit-identical for any worker
   count.

   It is NOT promised bit-identical to the untiled k-major triple
   loop once there is more than one block: a phase-3 relaxation reads
   d(i,k) already closed over the WHOLE k-block, a different
   bracketing of the same path sums than the untiled loop's
   one-k-at-a-time order, so individual cells may round differently.
   Both orders converge to correct shortest-path distances; the
   property tests pin single-block runs bitwise and multi-block runs
   to a tight relative tolerance. *)

let default_block = 64
let block = ref default_block

(* Test hook: shrinking the block exercises the multi-block phases 2/3
   at property-test sizes. Production never changes it. *)
let set_fw_block b =
  if b < 1 then invalid_arg "Apsp.set_fw_block: block must be >= 1";
  block := b

let fw_block () = !block

let fw_tile (d : mat) n ~k0 ~k1 ~i0 ~i1 ~j0 ~j1 =
  for k = k0 to k1 - 1 do
    let krow = k * n in
    for i = i0 to i1 - 1 do
      let irow = i * n in
      let dik = Bigarray.Array1.unsafe_get d (irow + k) in
      if dik < infinity then
        for j = j0 to j1 - 1 do
          let via = dik +. Bigarray.Array1.unsafe_get d (krow + j) in
          if via < Bigarray.Array1.unsafe_get d (irow + j) then
            Bigarray.Array1.unsafe_set d (irow + j) via
        done
    done
  done

let floyd_warshall_into ?pool g (d : mat) =
  let pool = match pool with Some p -> p | None -> Qp_par.Pool.default () in
  let n = Graph.n_vertices g in
  if Bigarray.Array1.dim d <> n * n then
    invalid_arg "Apsp.floyd_warshall_into: matrix dimension mismatch";
  Bigarray.Array1.fill d infinity;
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set d ((i * n) + i) 0.
  done;
  Graph.iter_edges g (fun u v len ->
      if len < Bigarray.Array1.get d ((u * n) + v) then begin
        Bigarray.Array1.set d ((u * n) + v) len;
        Bigarray.Array1.set d ((v * n) + u) len
      end);
  let block = !block in
  let nb = (n + block - 1) / block in
  let lo b = b * block in
  let hi b = min n ((b + 1) * block) in
  let run_tiles tiles =
    ignore
      (Qp_par.Pool.parallel_init pool (Array.length tiles) (fun t ->
           let kb, ib, jb = tiles.(t) in
           fw_tile d n ~k0:(lo kb) ~k1:(hi kb) ~i0:(lo ib) ~i1:(hi ib)
             ~j0:(lo jb) ~j1:(hi jb)))
  in
  for kb = 0 to nb - 1 do
    (* Phase 1: the diagonal tile, self-dependent, runs alone. *)
    fw_tile d n ~k0:(lo kb) ~k1:(hi kb) ~i0:(lo kb) ~i1:(hi kb) ~j0:(lo kb)
      ~j1:(hi kb);
    (* Phase 2: tiles sharing a block-row or block-column with K. *)
    let phase2 = ref [] in
    for b = 0 to nb - 1 do
      if b <> kb then begin
        phase2 := (kb, kb, b) :: !phase2;
        phase2 := (kb, b, kb) :: !phase2
      end
    done;
    run_tiles (Array.of_list (List.rev !phase2));
    (* Phase 3: everything else. *)
    let phase3 = ref [] in
    for ib = nb - 1 downto 0 do
      if ib <> kb then
        for jb = nb - 1 downto 0 do
          if jb <> kb then phase3 := (kb, ib, jb) :: !phase3
        done
    done;
    run_tiles (Array.of_list !phase3)
  done
