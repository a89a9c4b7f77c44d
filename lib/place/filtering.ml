type filtered = {
  alpha : float;
  sol : Lp_formulation.fractional;
  x_hat_elem : float array array;
  x_hat_quorum : float array array;
}

(* Move mass of one column toward small ranks: x_hat_t = min(alpha*x_t,
   1 - accumulated). After the cumulative sum reaches 1 the remaining
   entries are 0. *)
let filter_column ~alpha column_of n =
  let acc = ref 0. in
  Array.init n (fun t ->
      if !acc >= 1. -. 1e-12 then 0.
      else begin
        let v = Float.min (alpha *. column_of t) (1. -. !acc) in
        acc := !acc +. v;
        v
      end)

let apply ~alpha (sol : Lp_formulation.fractional) =
  if not (alpha > 1. && Float.is_finite alpha) then
    invalid_arg "Filtering.apply: finite alpha > 1 required";
  Qp_obs.Span.with_ "filtering" ~attrs:[ ("alpha", Qp_obs.Json.Float alpha) ]
  @@ fun () ->
  let n = Array.length sol.Lp_formulation.dist in
  let nu = Array.length sol.Lp_formulation.x_elem.(0) in
  let nq = Array.length sol.Lp_formulation.x_quorum.(0) in
  let x_hat_elem = Array.make_matrix n nu 0. in
  let x_hat_quorum = Array.make_matrix n nq 0. in
  for u = 0 to nu - 1 do
    let col = filter_column ~alpha (fun t -> sol.Lp_formulation.x_elem.(t).(u)) n in
    Array.iteri (fun t v -> x_hat_elem.(t).(u) <- v) col
  done;
  for q = 0 to nq - 1 do
    let col = filter_column ~alpha (fun t -> sol.Lp_formulation.x_quorum.(t).(q)) n in
    Array.iteri (fun t v -> x_hat_quorum.(t).(q) <- v) col
  done;
  { alpha; sol; x_hat_elem; x_hat_quorum }

let support flt u =
  let acc = ref [] in
  Array.iteri (fun t row -> if row.(u) > 1e-12 then acc := t :: !acc) flt.x_hat_elem;
  List.rev !acc

let check_invariants flt =
  let n = Array.length flt.sol.Lp_formulation.dist in
  let nu = Array.length flt.x_hat_elem.(0) in
  let nq = Array.length flt.x_hat_quorum.(0) in
  let ok = ref true in
  let tol = 1e-7 in
  (* Rows sum to one and stay within alpha * x. *)
  for u = 0 to nu - 1 do
    let sum = ref 0. in
    for t = 0 to n - 1 do
      sum := !sum +. flt.x_hat_elem.(t).(u);
      if
        flt.x_hat_elem.(t).(u)
        > (flt.alpha *. flt.sol.Lp_formulation.x_elem.(t).(u)) +. tol
      then ok := false
    done;
    if Float.abs (!sum -. 1.) > tol then ok := false
  done;
  (* Generalized Claim 3.8 on quorum supports. *)
  let ratio = flt.alpha /. (flt.alpha -. 1.) in
  for q = 0 to nq - 1 do
    let dq = Lp_formulation.quorum_frontier flt.sol q in
    for t = 0 to n - 1 do
      if flt.x_hat_quorum.(t).(q) > 1e-12 then
        if flt.sol.Lp_formulation.dist.(t) > (ratio *. dq) +. tol then ok := false
    done
  done;
  !ok
