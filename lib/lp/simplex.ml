(* Two-phase revised simplex with an explicit basis inverse.

   The solver never materializes the m x ncols tableau. It keeps:

     - the constraint matrix, structural columns plus one unit column
       per slack / surplus / artificial, as flat CSC arrays
       ([col_start] / [row_idx] / [vals]) with a CSR index of the
       columns that have an entry in each row ([row_start] /
       [row_cols]), both held by a [prepared] start (below);
     - B⁻¹, a dense m x m row-major matrix updated by product-form
       pivots. It stays sparse on the placement LPs, so each pivot
       walks only the nonzeros of the pivot row;
     - for every column of B⁻¹, the list of rows it may be nonzero in:
       16-bit row indices off the OCaml heap plus a membership bitmap,
       appended to by the pivot the first time it fills an entry and
       never shrunk, so each list holds every nonzero of its column
       (and possibly entries that cancelled to an exact zero);
     - the basic solution xb = B⁻¹ b;
     - the duals y = c_B B⁻¹, updated in O(m) per pivot
       (y += d_q · row p of the new B⁻¹, for entering column q with
       reduced cost d_q and pivot row p);
     - the reduced cost d_j of every column, cached with a validity
       flag.

   Per pivot: pricing, one FTRAN (w = B⁻¹ A_q) that walks only the
   listed rows of the B⁻¹ columns A_q touches, the B⁻¹ row update and
   the dual update. The dual update writes y only in the rows where the
   new pivot row of B⁻¹ is nonzero; the CSR index names the columns
   with an entry in those rows, and only their cached d_j are marked
   stale. Pricing recomputes a stale d_j with the same terms in the same
   order as a full recomputation, and reuses every other one, whose
   inputs have not changed, so each d_j has the bits a full pricing
   pass would give it. The FTRAN adds each w_i's nonzero terms in the
   order of A_q's entries, as the dense product B⁻¹ A_q would, and
   skips only exact zeros, so w is bit-identical to that product and no
   pivot depends on the lists. Every [refresh_every] pivots xb and y
   are recomputed from B⁻¹ (a full BTRAN, after which every d_j is
   stale) to shed the product-form rounding drift; B⁻¹ itself is never
   refactorized. An optimum that violates a row anyway is a numeric
   failure: a typed [Internal] error, counted in
   [qp_simplex_numeric_failures_total].

   Prepared starts. [prepare] builds everything about an LP that does
   not depend on its objective, once: the CSC matrix and its CSR index,
   the normalized rhs b, each row's dual column, and the state reached
   by crashing the model's start ([Lp.start]; every SSQPP LP carries
   one built from a first-fit assignment, DESIGN.md §15). That state —
   basis, xb and B⁻¹ — is stored sparsely: the rows listed for each
   B⁻¹ column and their entries. A solve restores a stored state into
   its domain's scratch (zero B⁻¹ and the bitmap, then write the listed
   entries and lists back), so it starts from the same bits the crash
   left, without repeating it. LPs that differ only in their objective
   (the SSQPP candidates of one constraint block) share one prepared
   start, and the SSQPP blocks are kept across solves; an LP solved on
   its own is prepared first. The start records its crash pivots, so
   each use of a kept start can count them ([count_crash]).

   Starts. A solve tries, in order: the caller's warm basis, crashed
   from the identity B⁻¹ over the slack and artificial columns, then
   the prepared start. [try_crash] pivots each start column into the
   unclaimed row where |B⁻¹A_c| is largest; a start is taken if the
   basis it reaches is primal-feasible with no artificial carrying
   weight, and then phase 1 is skipped. A refused warm crash restores
   the prepared start; when the model's start was refused (or there is
   none), phase 1 runs from the identity basis.

   Pricing is Dantzig with a permanent switch to Bland's rule after a
   stall of degenerate pivots, which guarantees termination; the ratio
   test breaks ties on the smaller basic column index. *)

module Obs = Qp_obs

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

(* Deadline machinery lives in [Cancel], shared with the tree
   branch-and-bound in [Qp_place]; re-exported here because front ends
   address the solver as [Simplex]. *)
let set_deadline = Cancel.set_deadline
let get_deadline = Cancel.get_deadline

let eps_rc = 1e-9 (* reduced-cost optimality tolerance *)
let eps_piv = 1e-9 (* minimum pivot magnitude *)
let eps_zero = 1e-11

(* Recompute xb = B⁻¹b and y = c_B B⁻¹ from scratch this often. *)
let refresh_every = 128

type rows16 = (int, Bigarray.int16_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A basis and its B⁻¹, stored sparsely: B⁻¹ column k lists the rows
   [rows.(e)] for e in [col_ptr.(k), col_ptr.(k+1)), in list order,
   with entries [entries.(e)]. Every other entry is zero. *)
type snapshot = {
  s_basis : int array; (* row -> basic column *)
  s_xb : float array;
  col_ptr : int array; (* m + 1 *)
  rows : int array;
  entries : float array;
}

(* The model's start: none, refused or taken by a crash from the
   identity basis, or not crashed yet. An LP prepared for its own solve
   leaves it [Pending]: that solve crashes it in place only if no warm
   basis was taken first, as a start that no solve uses costs no
   pivots. *)
type start = No_start | Refused | Taken of snapshot | Pending of int array

type prepared = {
  p_lp : Lp.t;
  p_m : int;
  p_ncols : int;
  p_first_artificial : int;
  p_n_artificial : int;
  p_col_start : int array; (* ncols + 1 offsets into row_idx / vals *)
  p_row_idx : int array;
  p_vals : float array;
  p_row_start : int array; (* m + 1 offsets into row_cols / row_coef *)
  p_row_cols : int array; (* each row's terms' columns, then its unit columns *)
  p_b : float array; (* normalized rhs, >= 0 *)
  row_terms : int array; (* terms per row *)
  row_coef : float array; (* term coefficients as written *)
  row_cmp : Lp.cmp array;
  row_rhs : float array;
  row_dual : (int * float) array;
  identity : snapshot; (* the slack / artificial basis, B⁻¹ = I *)
  start : start;
  crash_pivots : int; (* pivots of the crash that took [start] *)
}

type state = {
  m : int;
  ncols : int;
  first_artificial : int;
  col_start : int array;
  row_idx : int array;
  vals : float array;
  row_start : int array;
  row_cols : int array;
  b : float array;
  binv : float array; (* m x m basis inverse, row-major *)
  col_rows : rows16; (* rows of B⁻¹ column k from index k·m *)
  col_len : int array; (* listed rows per B⁻¹ column *)
  listed : Bytes.t; (* bit i·m + k: row i is in column k's list *)
  xb : float array; (* current basic values, B⁻¹ b *)
  basis : int array; (* row -> basic column *)
  in_basis : bool array; (* column -> basic? *)
  d : float array; (* cached reduced cost per column *)
  valid : bool array; (* column -> is [d] current? *)
  nz : int array; (* scratch: nonzero positions of the pivot row *)
}

let internal msg = raise (Qp_util.Qp_error.Error (Internal msg))

let budget_exceeded max_pivots =
  internal (Printf.sprintf "Simplex: pivot budget exceeded (%d pivots)" max_pivots)

(* w := B⁻¹ A_col: add B⁻¹[i,r]·a_r over the listed rows i of each
   B⁻¹ column r that A_col touches, in entry order. Each w_i gets the
   dense product's nonzero terms in the dense product's order, so the
   same bits. *)
let ftran st col w =
  let m = st.m and binv = st.binv and col_rows = st.col_rows in
  Array.fill w 0 m 0.;
  for e = st.col_start.(col) to st.col_start.(col + 1) - 1 do
    let r = st.row_idx.(e) and a = st.vals.(e) in
    let base = r * m in
    for t = 0 to st.col_len.(r) - 1 do
      let i = Bigarray.Array1.unsafe_get col_rows (base + t) in
      w.(i) <- w.(i) +. (binv.((i * m) + r) *. a)
    done
  done

(* y := c_B^T B⁻¹, skipping rows whose basic cost is zero (most rows,
   in both phases). *)
let btran st cost y =
  let m = st.m and binv = st.binv in
  Array.fill y 0 m 0.;
  for k = 0 to m - 1 do
    let cb = cost.(st.basis.(k)) in
    if cb <> 0. then begin
      let base = k * m in
      for i = 0 to m - 1 do
        y.(i) <- y.(i) +. (cb *. binv.(base + i))
      done
    end
  done

(* [dot st v base j] is u · A_j, where u is the length-m vector stored
   in [v] from offset [base]. *)
let dot st v base j =
  let acc = ref 0. in
  for e = st.col_start.(j) to st.col_start.(j + 1) - 1 do
    acc := !acc +. (v.(base + st.row_idx.(e)) *. st.vals.(e))
  done;
  !acc

let set_listed listed ik =
  Bytes.set_uint8 listed (ik lsr 3) (Bytes.get_uint8 listed (ik lsr 3) lor (1 lsl (ik land 7)))

(* Append [row] to B⁻¹ column [col]'s list unless it is there. *)
let list_entry st ~row ~col =
  let ik = (row * st.m) + col in
  let byte = Bytes.get_uint8 st.listed (ik lsr 3) and bit = 1 lsl (ik land 7) in
  if byte land bit = 0 then begin
    Bytes.set_uint8 st.listed (ik lsr 3) (byte lor bit);
    Bigarray.Array1.unsafe_set st.col_rows ((col * st.m) + st.col_len.(col)) row;
    st.col_len.(col) <- st.col_len.(col) + 1
  end

(* Product-form pivot: basis row [row] leaves, column [col] enters,
   with [w] = B⁻¹ A_col already computed. Updates binv, its column
   lists, xb and basis, and leaves the nonzero positions of the new
   pivot row of B⁻¹ in [st.nz], returning their count. The inner loop
   reads and writes B⁻¹ entries (i, k) with i, k < m, and the nz slots
   below [cnt] that the first loop wrote, so it skips bounds checks. *)
let apply_pivot st ~row ~col w =
  let m = st.m and binv = st.binv and nz = st.nz and xb = st.xb in
  let inv = 1. /. w.(row) in
  let base_r = row * m in
  let cnt = ref 0 in
  for k = 0 to m - 1 do
    let v = binv.(base_r + k) in
    if v <> 0. then begin
      binv.(base_r + k) <- v *. inv;
      nz.(!cnt) <- k;
      incr cnt
    end
  done;
  let cnt = !cnt in
  xb.(row) <- xb.(row) *. inv;
  let xr = xb.(row) in
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = w.(i) in
      if Float.abs f > eps_zero then begin
        let base_i = i * m in
        for t = 0 to cnt - 1 do
          let k = Array.unsafe_get nz t in
          let old = Array.unsafe_get binv (base_i + k) in
          Array.unsafe_set binv (base_i + k)
            (old -. (f *. Array.unsafe_get binv (base_r + k)));
          (* A nonzero entry is listed already. *)
          if old = 0. then list_entry st ~row:i ~col:k
        done;
        let x = xb.(i) -. (f *. xr) in
        xb.(i) <- (if x < 0. && x > -1e-11 then 0. else x)
      end
    end
  done;
  st.in_basis.(st.basis.(row)) <- false;
  st.in_basis.(col) <- true;
  st.basis.(row) <- col;
  cnt

let refresh_xb st =
  let m = st.m in
  for i = 0 to m - 1 do
    let base = i * m in
    let s = ref 0. in
    for k = 0 to m - 1 do
      s := !s +. (st.binv.(base + k) *. st.b.(k))
    done;
    st.xb.(i) <- (if !s < 0. && !s > -1e-11 then 0. else !s)
  done

type phase_result = Phase_optimal | Phase_unbounded

(* One simplex phase over the columns [0, limit): Dantzig pricing with
   a permanent switch to Bland's rule after a stall. Each pivot counts
   into [total] as it is made, so a pivot budget or deadline raised
   mid-phase still reports the pivots made. *)
let optimize st cost ~limit ~max_pivots ~total =
  let m = st.m in
  let y = Array.make m 0. in
  let w = Array.make m 0. in
  let d = st.d and valid = st.valid in
  let pivots = ref 0 in
  let stall = ref 0 in
  let bland = ref false in
  let stall_limit = 20 * (m + st.ncols + 10) in
  btran st cost y;
  Array.fill valid 0 limit false;
  let rec loop () =
    (* Entering column: the most negative reduced cost (Dantzig), or
       under Bland the first negative one. [best] ends as d_q. *)
    let enter = ref (-1) in
    let best = ref (-.eps_rc) in
    let j = ref 0 in
    while !j < limit && not (!bland && !enter >= 0) do
      let jj = !j in
      if not st.in_basis.(jj) then begin
        if not valid.(jj) then begin
          let r = ref cost.(jj) in
          for e = st.col_start.(jj) to st.col_start.(jj + 1) - 1 do
            r := !r -. (y.(st.row_idx.(e)) *. st.vals.(e))
          done;
          d.(jj) <- !r;
          valid.(jj) <- true
        end;
        if d.(jj) < !best then begin
          best := d.(jj);
          enter := jj
        end
      end;
      incr j
    done;
    if !enter < 0 then Phase_optimal
    else begin
      let col = !enter in
      let d_q = !best in
      ftran st col w;
      (* Ratio test; Bland tie-break on basis variable index. *)
      let row = ref (-1) in
      let best_ratio = ref infinity in
      for i = 0 to m - 1 do
        let wi = w.(i) in
        if wi > eps_piv then begin
          let ratio = st.xb.(i) /. wi in
          if
            ratio < !best_ratio -. 1e-12
            || (ratio < !best_ratio +. 1e-12
               && !row >= 0
               && st.basis.(i) < st.basis.(!row))
          then begin
            best_ratio := ratio;
            row := i
          end
        end
      done;
      if !row < 0 then Phase_unbounded
      else begin
        let row = !row in
        let cnt = apply_pivot st ~row ~col w in
        let base_r = row * m in
        (* y moves only in the rows of the pivot row's nonzeros; the
           reduced costs of the columns with an entry there go stale. *)
        for t = 0 to cnt - 1 do
          let k = st.nz.(t) in
          y.(k) <- y.(k) +. (d_q *. st.binv.(base_r + k));
          for e = st.row_start.(k) to st.row_start.(k + 1) - 1 do
            valid.(st.row_cols.(e)) <- false
          done
        done;
        incr pivots;
        incr total;
        if !pivots > max_pivots then budget_exceeded max_pivots;
        Cancel.check_deadline ();
        if !pivots mod refresh_every = 0 then begin
          refresh_xb st;
          btran st cost y;
          Array.fill valid 0 limit false
        end;
        (* Degenerate pivots (zero ratio) do not improve the objective;
           a long streak of them triggers the switch to Bland's rule. *)
        if !best_ratio <= 1e-12 then begin
          incr stall;
          if !stall > stall_limit then bland := true
        end
        else stall := 0;
        loop ()
      end
    end
  in
  loop ()

(* One set of solver buffers per domain, reused across solves: the
   placement pipeline solves many same-shape LPs back to back, and fresh
   buffers per solve cost allocation, page faults and peak RSS (arrays
   above 256 words go straight to the major heap). The m² buffers serve
   any LP of at most [dim] rows, indexed with the LP's own row stride
   m; the column buffers grow to the largest LP seen. The slot is
   emptied by an atomic exchange while a solve holds the buffers, so a
   concurrent solve on the same domain (another systhread) allocates
   its own instead of sharing them. Buffers above [max_retained] B⁻¹
   floats (2 MB, m > 512) are dropped after the solve, so one large LP
   does not pin them for the life of the domain. *)
type scratch = {
  dim : int;
  s_binv : float array; (* dim² *)
  s_col_rows : rows16; (* dim², off the OCaml heap *)
  s_col_len : int array; (* dim *)
  s_listed : Bytes.t; (* dim² bits *)
  s_nz : int array; (* dim *)
  mutable s_in_basis : bool array; (* ncols *)
  mutable s_cost : float array; (* ncols *)
  mutable s_d : float array; (* ncols *)
  mutable s_valid : bool array; (* ncols *)
}

let max_retained = 1 lsl 18

(* Row indices are stored in 16 bits. *)
let max_rows = 1 lsl 16

let check_rows m =
  if m > max_rows then
    internal (Printf.sprintf "Simplex: %d rows exceed the %d-row limit" m max_rows)

let make_scratch m =
  {
    dim = m;
    s_binv = Array.make (m * m) 0.;
    s_col_rows = Bigarray.Array1.create Bigarray.int16_unsigned Bigarray.c_layout (m * m);
    s_col_len = Array.make m 0;
    s_listed = Bytes.create (((m * m) + 7) / 8);
    s_nz = Array.make m 0;
    s_in_basis = [||];
    s_cost = [||];
    s_d = [||];
    s_valid = [||];
  }

(* The empty slot; never handed out. *)
let no_scratch = { (make_scratch 0) with dim = -1 }

let scratch_slot : scratch Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make no_scratch)

(* Run [f] on a scratch of at least [m] rows and [ncols] columns,
   handing it back to the domain's slot however [f] exits. *)
let with_scratch ~m ~ncols f =
  check_rows m;
  let s = Atomic.exchange (Domain.DLS.get scratch_slot) no_scratch in
  let s = if s.dim >= m then s else make_scratch m in
  if Array.length s.s_in_basis < ncols then begin
    s.s_in_basis <- Array.make ncols false;
    s.s_cost <- Array.make ncols 0.;
    s.s_d <- Array.make ncols 0.;
    s.s_valid <- Array.make ncols false
  end;
  Fun.protect
    ~finally:(fun () ->
      if s.dim * s.dim <= max_retained then Atomic.set (Domain.DLS.get scratch_slot) s)
    (fun () -> f s)

(* The solver state of [p] over scratch [s]: the matrix and rhs are
   [p]'s, B⁻¹ and the per-column arrays are [s]'s. Its basis is unset
   until a snapshot is restored into it. *)
let state_of p s =
  {
    m = p.p_m;
    ncols = p.p_ncols;
    first_artificial = p.p_first_artificial;
    col_start = p.p_col_start;
    row_idx = p.p_row_idx;
    vals = p.p_vals;
    row_start = p.p_row_start;
    row_cols = p.p_row_cols;
    b = p.p_b;
    binv = s.s_binv;
    col_rows = s.s_col_rows;
    col_len = s.s_col_len;
    listed = s.s_listed;
    xb = Array.make p.p_m 0.;
    basis = Array.make p.p_m (-1);
    in_basis = s.s_in_basis;
    d = s.s_d;
    valid = s.s_valid;
    nz = s.s_nz;
  }

(* Put [snap] into [st]: B⁻¹ and the bitmap zeroed, then the listed
   entries and their lists written back in list order. This is the
   exact state [snapshot] read. *)
let restore st snap =
  let m = st.m and binv = st.binv and listed = st.listed in
  Array.fill binv 0 (m * m) 0.;
  Bytes.fill listed 0 (((m * m) + 7) / 8) '\000';
  for k = 0 to m - 1 do
    let lo = snap.col_ptr.(k) in
    st.col_len.(k) <- snap.col_ptr.(k + 1) - lo;
    for e = lo to snap.col_ptr.(k + 1) - 1 do
      let i = snap.rows.(e) in
      let ik = (i * m) + k in
      binv.(ik) <- snap.entries.(e);
      set_listed listed ik;
      Bigarray.Array1.set st.col_rows ((k * m) + e - lo) i
    done
  done;
  Array.blit snap.s_basis 0 st.basis 0 m;
  Array.blit snap.s_xb 0 st.xb 0 m;
  Array.fill st.in_basis 0 st.ncols false;
  Array.iter (fun c -> st.in_basis.(c) <- true) st.basis

let snapshot st =
  let m = st.m in
  let col_ptr = Array.make (m + 1) 0 in
  for k = 0 to m - 1 do
    col_ptr.(k + 1) <- col_ptr.(k) + st.col_len.(k)
  done;
  let rows = Array.make col_ptr.(m) 0 and entries = Array.make col_ptr.(m) 0. in
  for k = 0 to m - 1 do
    for t = 0 to st.col_len.(k) - 1 do
      let i = Bigarray.Array1.get st.col_rows ((k * m) + t) in
      rows.(col_ptr.(k) + t) <- i;
      entries.(col_ptr.(k) + t) <- st.binv.((i * m) + k)
    done
  done;
  { s_basis = Array.copy st.basis; s_xb = Array.copy st.xb; col_ptr; rows; entries }

type basis = int array

(* Crash the columns of [warm] into the state: each column is pivoted
   in on the unclaimed row where B⁻¹A_c has the largest magnitude.
   Returns [Some crash_pivots] when the resulting start is
   primal-feasible (xb >= -1e-7, no artificial carrying weight), so
   phase 1 can be skipped. Mutates [st]; on failure the caller restores
   another state. *)
let try_crash st (warm : basis) =
  let claimed = Array.make st.m false in
  let w = Array.make st.m 0. in
  let crash_pivots = ref 0 in
  Array.iter
    (fun c ->
      if c >= 0 && c < st.first_artificial && c < st.ncols then begin
        if st.in_basis.(c) then begin
          for i = 0 to st.m - 1 do
            if st.basis.(i) = c then claimed.(i) <- true
          done
        end
        else begin
          ftran st c w;
          let best = ref (-1) in
          let best_mag = ref 1e-7 in
          for i = 0 to st.m - 1 do
            if not claimed.(i) then begin
              let mag = Float.abs w.(i) in
              if mag > !best_mag then begin
                best := i;
                best_mag := mag
              end
            end
          done;
          if !best >= 0 then begin
            ignore (apply_pivot st ~row:!best ~col:c w : int);
            claimed.(!best) <- true;
            incr crash_pivots
          end
        end
      end)
    warm;
  let feasible = ref true in
  for i = 0 to st.m - 1 do
    if st.xb.(i) < -1e-7 then feasible := false
    else if st.basis.(i) >= st.first_artificial && st.xb.(i) > 1e-7 then
      feasible := false
  done;
  if !feasible then begin
    for i = 0 to st.m - 1 do
      if st.xb.(i) < 0. then st.xb.(i) <- 0.
    done;
    Some !crash_pivots
  end
  else None

(* ------------------------------------------------------------------ *)
(* Preparation                                                         *)
(* ------------------------------------------------------------------ *)

(* Rows with a negative rhs are negated so that b >= 0, which swaps Le
   and Ge. Column layout: the n structural variables, then one slack
   (Le, +1) or surplus (Ge, -1) column per inequality row, then one
   artificial column per Ge/Eq row, all numbered in row order. Each row
   also names the unit column whose phase-2 reduced cost encodes its
   dual, with the factor mapping it back to the original orientation:
   a slack/artificial column e_i gives r = -y_i (factor -1), a surplus
   column -e_i gives r = +y_i (factor +1), and a negated row flips the
   factor. The identity basis takes each row's slack (Le) or
   artificial (Ge, Eq) column. With [~crash] the model's start, if
   any, is crashed from it on the domain's scratch, and the crash
   pivots are recorded in the prepared start, not counted; without,
   the start is left [Pending]. *)
let prepare_uncounted ~crash lp =
  let n = Lp.n_vars lp in
  let rows = Array.of_list (Lp.constraints lp) in
  let m = Array.length rows in
  check_rows m;
  let flipped i = rows.(i).Lp.rhs < 0. in
  let cmp_of i =
    match rows.(i).Lp.cmp with
    | Lp.Le when flipped i -> Lp.Ge
    | Lp.Ge when flipped i -> Lp.Le
    | c -> c
  in
  let n_slack = ref 0 and n_artificial = ref 0 in
  (* Each row's CSR entries: its terms, then its one or two unit
     columns. *)
  let row_terms = Array.map (fun r -> List.length r.Lp.terms) rows in
  let row_start = Array.make (m + 1) 0 in
  for i = 0 to m - 1 do
    if cmp_of i <> Lp.Eq then incr n_slack;
    if cmp_of i <> Lp.Le then incr n_artificial;
    row_start.(i + 1) <-
      row_start.(i) + row_terms.(i) + if cmp_of i = Lp.Ge then 2 else 1
  done;
  let first_artificial = n + !n_slack in
  let ncols = first_artificial + !n_artificial in
  (* [Lp.add_constraint] already merged duplicate terms, so each
     variable appears at most once per row; every
     slack/surplus/artificial column has exactly one entry. *)
  let nnz = row_start.(m) in
  (* Column counts, then offsets. *)
  let col_start = Array.make (ncols + 1) 0 in
  Array.iter
    (fun { Lp.terms; _ } ->
      List.iter (fun (v, _) -> col_start.(v + 1) <- col_start.(v + 1) + 1) terms)
    rows;
  for j = n to ncols - 1 do
    col_start.(j + 1) <- 1
  done;
  for j = 1 to ncols do
    col_start.(j) <- col_start.(j) + col_start.(j - 1)
  done;
  let row_idx = Array.make nnz 0 and vals = Array.make nnz 0. in
  let row_cols = Array.make nnz 0 and row_coef = Array.make nnz 0. in
  let next = Array.sub col_start 0 ncols and csr = ref 0 in
  let push j i a =
    row_idx.(next.(j)) <- i;
    vals.(next.(j)) <- a;
    next.(j) <- next.(j) + 1;
    row_cols.(!csr) <- j;
    incr csr
  in
  let b = Array.make m 0. in
  let basis = Array.make m (-1) in
  let row_dual = Array.make m (0, 0.) in
  let slack_idx = ref n and art_idx = ref first_artificial in
  (* Rows are visited in order, so every column's entries come out
     sorted by row, and each row's CSR entries are its terms in the
     order written, with their coefficients as written in [row_coef],
     then its unit columns. *)
  for i = 0 to m - 1 do
    let { Lp.terms; rhs; _ } = rows.(i) in
    let flip = flipped i in
    let flip_factor = if flip then -1. else 1. in
    List.iter
      (fun (v, c) ->
        row_coef.(!csr) <- c;
        push v i (if flip then -.c else c))
      terms;
    b.(i) <- (if flip then -.rhs else rhs);
    match cmp_of i with
    | Lp.Le ->
        push !slack_idx i 1.;
        basis.(i) <- !slack_idx;
        row_dual.(i) <- (!slack_idx, -.flip_factor);
        incr slack_idx
    | Lp.Ge ->
        push !slack_idx i (-1.);
        row_dual.(i) <- (!slack_idx, flip_factor);
        incr slack_idx;
        push !art_idx i 1.;
        basis.(i) <- !art_idx;
        incr art_idx
    | Lp.Eq ->
        push !art_idx i 1.;
        basis.(i) <- !art_idx;
        row_dual.(i) <- (!art_idx, -.flip_factor);
        incr art_idx
  done;
  let identity =
    {
      s_basis = basis;
      s_xb = b;
      col_ptr = Array.init (m + 1) Fun.id;
      rows = Array.init m Fun.id;
      entries = Array.make m 1.;
    }
  in
  let p =
    {
      p_lp = lp;
      p_m = m;
      p_ncols = ncols;
      p_first_artificial = first_artificial;
      p_n_artificial = !n_artificial;
      p_col_start = col_start;
      p_row_idx = row_idx;
      p_vals = vals;
      p_row_start = row_start;
      p_row_cols = row_cols;
      p_b = b;
      row_terms;
      row_coef;
      row_cmp = Array.map (fun r -> r.Lp.cmp) rows;
      row_rhs = Array.map (fun r -> r.Lp.rhs) rows;
      row_dual;
      identity;
      start = No_start;
      crash_pivots = 0;
    }
  in
  match Lp.start lp with
  | None -> p
  | Some cols when not crash -> { p with start = Pending cols }
  | Some cols -> (
      with_scratch ~m ~ncols @@ fun s ->
      let st = state_of p s in
      restore st identity;
      match try_crash st cols with
      | Some k -> { p with start = Taken (snapshot st); crash_pivots = k }
      | None -> { p with start = Refused })

type counters = {
  solves_c : Obs.Metrics.counter;
  pivots_c : Obs.Metrics.counter;
  warm_attempts_c : Obs.Metrics.counter;
  warm_used_c : Obs.Metrics.counter;
}

(* The solver's counters, registered in one order whichever entry
   point runs first, so a metrics dump lists them alike. *)
let counters reg =
  let solves_c =
    Obs.Metrics.counter ~help:"Two-phase simplex invocations" reg "qp_simplex_solves_total"
  in
  let pivots_c =
    Obs.Metrics.counter ~help:"Simplex pivots across both phases" reg
      "qp_simplex_pivots_total"
  in
  let warm_attempts_c =
    Obs.Metrics.counter ~help:"Simplex warm-start attempts" reg
      "qp_simplex_warm_attempts_total"
  in
  let warm_used_c =
    Obs.Metrics.counter ~help:"Simplex solves where the crash basis skipped phase 1" reg
      "qp_simplex_warm_used_total"
  in
  { solves_c; pivots_c; warm_attempts_c; warm_used_c }

let count_crash p =
  Obs.Metrics.add (counters (Obs.Metrics.current ())).pivots_c (float_of_int p.crash_pivots)

let prepare lp =
  let p = prepare_uncounted ~crash:true lp in
  count_crash p;
  p

(* [Lp.is_feasible ~tol] of the prepared rows at [x]: each row's terms
   summed in the same order, so the same verdict. *)
let feasible p ~tol x =
  Array.for_all (fun xi -> xi >= -.tol) x
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < p.p_m do
    let acc = ref 0. in
    for e = p.p_row_start.(!i) to p.p_row_start.(!i) + p.row_terms.(!i) - 1 do
      acc := !acc +. (p.row_coef.(e) *. x.(p.p_row_cols.(e)))
    done;
    ok := Lp.holds ~tol p.row_cmp.(!i) ~rhs:p.row_rhs.(!i) !acc;
    incr i
  done;
  !ok

type certified = {
  x : float array;
  objective : float;
  duals : float array;
}

type certified_outcome = Certified of certified | C_infeasible | C_unbounded

(* Internal driver shared by [solve], [solve_certified] and
   [solve_warm]: the outcome plus, on optimality, the final basis for
   warm-starting a nearby LP. The duals are computed only when asked
   for ([duals] is [[||]] otherwise), since only [solve_certified]
   returns them. Without [prepared], [lp] is prepared
   here with its start pending, so the crash happens, and counts, only
   when the start is used. *)
let solve_internal ?max_pivots ?warm ?prepared ~duals lp =
  Cancel.check_deadline ();
  let n = Lp.n_vars lp in
  let m = Lp.n_constraints lp in
  (match prepared with
   | Some p when not (Lp.same_rows p.p_lp lp) ->
       invalid_arg "Simplex: prepared start of another LP's rows"
   | _ -> ());
  let reg = Obs.Metrics.current () in
  let { solves_c; pivots_c; warm_attempts_c; warm_used_c } = counters reg in
  Obs.Metrics.inc solves_c;
  let total_pivots = ref 0 in
  Obs.Span.with_ "simplex"
    ~attrs:[ ("vars", Obs.Json.Int n); ("rows", Obs.Json.Int m) ]
  @@ fun () ->
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.add pivots_c (float_of_int !total_pivots);
      Obs.Span.add_attr "pivots" (Obs.Json.Int !total_pivots))
  @@ fun () ->
  let p =
    match prepared with
    | Some p -> p
    | None -> prepare_uncounted ~crash:false lp
  in
  let max_pivots =
    match max_pivots with Some v -> v | None -> 50_000 + (50 * (m + n))
  in
  with_scratch ~m ~ncols:p.p_ncols @@ fun scratch ->
  let st = state_of p scratch in
  let count_start outcome =
    Obs.Metrics.inc
      (Obs.Metrics.counter
         ~help:"LP starts by outcome: taken, refused, or no_first_fit (none built)"
         ~labels:[ ("outcome", outcome) ] reg "qp_simplex_start_total")
  in
  (* The prepared start: the state its crash reached if that was
     taken, else the identity basis; a pending start is crashed
     here. *)
  let prepared_start () =
    match p.start with
    | Taken snap ->
        count_start "taken";
        restore st snap;
        true
    | Refused ->
        count_start "refused";
        restore st p.identity;
        false
    | No_start ->
        restore st p.identity;
        false
    | Pending cols -> (
        restore st p.identity;
        match try_crash st cols with
        | Some crash_pivots ->
            count_start "taken";
            total_pivots := !total_pivots + crash_pivots;
            true
        | None ->
            count_start "refused";
            restore st p.identity;
            false)
  in
  (* The caller's warm basis is crashed from the identity; if refused,
     the prepared start takes over. *)
  let started =
    match warm with
    | Some wb when Array.length wb > 0 -> (
        Obs.Metrics.inc warm_attempts_c;
        restore st p.identity;
        match try_crash st wb with
        | Some crash_pivots ->
            Obs.Metrics.inc warm_used_c;
            total_pivots := !total_pivots + crash_pivots;
            true
        | None -> prepared_start ())
    | _ -> prepared_start ()
  in
  let n_artificial = p.p_n_artificial in
  (* Phase 1: minimize the sum of artificials. Skipped when a crash
     start is primal-feasible. *)
  (if n_artificial > 0 && not started then begin
     let cost1 = scratch.s_cost in
     Array.fill cost1 0 st.first_artificial 0.;
     Array.fill cost1 st.first_artificial n_artificial 1.;
     match optimize st cost1 ~limit:st.ncols ~max_pivots ~total:total_pivots with
     | Phase_unbounded -> assert false (* bounded below by 0 *)
     | Phase_optimal -> ()
   end);
  let phase1_value =
    let v = ref 0. in
    for i = 0 to st.m - 1 do
      if st.basis.(i) >= st.first_artificial then v := !v +. st.xb.(i)
    done;
    !v
  in
  if n_artificial > 0 && (not started) && phase1_value > 1e-7 then (C_infeasible, None)
  else begin
    (* Drive residual zero-level artificials out of the basis where
       possible. A row r admitting no real pivot column has
       (B⁻¹A)_r,j = 0 for every j < first_artificial, so every future
       entering direction has w_r = 0 there: the row is inert (it
       encodes a redundant constraint) and the artificial stays parked
       at zero, keeping row indexing stable for the duals. *)
    let w = Array.make st.m 0. in
    for r = 0 to st.m - 1 do
      if st.basis.(r) >= st.first_artificial then begin
        let found = ref false in
        let j = ref 0 in
        while (not !found) && !j < st.first_artificial do
          if
            (not st.in_basis.(!j))
            && Float.abs (dot st st.binv (r * st.m) !j) > 1e-7
          then begin
            ftran st !j w;
            ignore (apply_pivot st ~row:r ~col:!j w : int);
            found := true
          end;
          incr j
        done;
        if (not !found) && st.xb.(r) < 0. then st.xb.(r) <- 0.
      end
    done;
    (* Phase 2. *)
    let cost2 = scratch.s_cost in
    Array.blit (Lp.objective lp) 0 cost2 0 n;
    Array.fill cost2 n (st.ncols - n) 0.;
    match optimize st cost2 ~limit:st.first_artificial ~max_pivots ~total:total_pivots with
    | Phase_unbounded -> (C_unbounded, None)
    | Phase_optimal ->
        let x = Array.make n 0. in
        for i = 0 to st.m - 1 do
          if st.basis.(i) < n then x.(st.basis.(i)) <- st.xb.(i)
        done;
        (* Clean tiny negatives from roundoff. *)
        Array.iteri (fun i xi -> if xi < 0. && xi > -1e-9 then x.(i) <- 0.) x;
        if not (feasible p ~tol:1e-6 x) then begin
          Obs.Metrics.inc
            (Obs.Metrics.counter
               ~help:"Simplex optima that violate a row (numeric failure)" reg
               "qp_simplex_numeric_failures_total");
          internal "Simplex: numeric failure (the optimum violates a row by more than 1e-6)"
        end;
        let objective = Lp.objective_value lp x in
        let duals =
          if not duals then [||]
          else begin
            let y = Array.make st.m 0. in
            btran st cost2 y;
            Array.map
              (fun (col, factor) -> factor *. (cost2.(col) -. dot st y 0 col))
              p.row_dual
          end
        in
        (Certified { x; objective; duals }, Some (Array.copy st.basis))
  end

let solve ?max_pivots lp =
  match fst (solve_internal ?max_pivots ~duals:false lp) with
  | C_infeasible -> Infeasible
  | C_unbounded -> Unbounded
  | Certified { x; objective; _ } -> Optimal { x; objective }

let solve_certified ?max_pivots ?prepared lp =
  fst (solve_internal ?max_pivots ?prepared ~duals:true lp)

let solve_warm ?max_pivots ?warm ?prepared lp =
  match solve_internal ?max_pivots ?warm ?prepared ~duals:false lp with
  | C_infeasible, _ -> (Infeasible, None)
  | C_unbounded, _ -> (Unbounded, None)
  | Certified { x; objective; _ }, basis -> (Optimal { x; objective }, basis)

let check_certificate ?(tol = 1e-6) lp (c : certified) =
  let rows = Lp.constraints lp in
  let duals = c.duals in
  List.length rows = Array.length duals
  && Lp.is_feasible ~tol lp c.x
  && begin
       (* Sign conditions and strong duality. *)
       let signs_ok =
         List.for_all2
           (fun { Lp.cmp; _ } y ->
             match cmp with
             | Lp.Le -> y <= tol
             | Lp.Ge -> y >= -.tol
             | Lp.Eq -> true)
           rows
           (Array.to_list duals)
       in
       let dual_obj =
         List.fold_left2
           (fun acc { Lp.rhs; _ } y -> acc +. (y *. rhs))
           0. rows (Array.to_list duals)
       in
       let scale = Float.max 1. (Float.abs c.objective) in
       let strong = Float.abs (dual_obj -. c.objective) <= tol *. scale in
       (* Dual feasibility: c_j - sum_i y_i a_ij >= 0 for every
          structural variable j. *)
       let n = Lp.n_vars lp in
       let reduced = Lp.objective lp in
       List.iteri
         (fun i { Lp.terms; _ } ->
           List.iter (fun (v, coef) -> reduced.(v) <- reduced.(v) -. (duals.(i) *. coef)) terms)
         rows;
       let dual_feasible = ref true in
       for j = 0 to n - 1 do
         if reduced.(j) < -.tol then dual_feasible := false
       done;
       signs_ok && strong && !dual_feasible
     end
