module Lp = Qp_lp.Lp
module Simplex = Qp_lp.Simplex

type fractional = { y : float array array; lp_cost : float }

let solve (g : Gap.t) =
  let nm = g.n_machines and nj = g.n_jobs in
  (* Variable numbering: y_{i,j} -> i * nj + j. Forbidden pairs are
     pinned to zero with an explicit [y <= 0] row. *)
  let var i j = (i * nj) + j in
  let lp = Lp.create (nm * nj) in
  for i = 0 to nm - 1 do
    for j = 0 to nj - 1 do
      if g.allowed.(i).(j) then Lp.set_objective lp (var i j) g.cost.(i).(j)
      else
        (* Pin forbidden pairs to zero. *)
        Lp.add_constraint lp [ (var i j, 1.) ] Lp.Le 0.
    done
  done;
  for j = 0 to nj - 1 do
    let terms = ref [] in
    for i = 0 to nm - 1 do
      if g.allowed.(i).(j) then terms := (var i j, 1.) :: !terms
    done;
    Lp.add_constraint lp !terms Lp.Eq 1.
  done;
  for i = 0 to nm - 1 do
    let terms = ref [] in
    for j = 0 to nj - 1 do
      if g.allowed.(i).(j) && g.load.(i).(j) <> 0. then
        terms := (var i j, g.load.(i).(j)) :: !terms
    done;
    if !terms <> [] then Lp.add_constraint lp !terms Lp.Le g.budget.(i)
  done;
  match Simplex.solve lp with
  | Simplex.Infeasible -> None
  | Simplex.Unbounded ->
      (* Impossible: feasible region is inside the unit box. *)
      assert false
  | Simplex.Optimal { x; objective } ->
      let y = Array.make_matrix nm nj 0. in
      for i = 0 to nm - 1 do
        for j = 0 to nj - 1 do
          let v = x.(var i j) in
          y.(i).(j) <- (if v < 1e-11 then 0. else v)
        done
      done;
      Some { y; lp_cost = objective }
