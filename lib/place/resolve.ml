module Simplex = Qp_lp.Simplex
module Obs = Qp_obs

type t = {
  alpha : float;
  max_pivots : int option;
  candidates : int list option;
  bases : (int, Simplex.basis) Hashtbl.t;
  mutable solves : int;
}

let create ?(alpha = 2.) ?max_pivots ?candidates () =
  if not (alpha > 1. && Float.is_finite alpha) then
    invalid_arg "Resolve.create: finite alpha > 1 required";
  { alpha; max_pivots; candidates; bases = Hashtbl.create 16; solves = 0 }

let warm_sources t = Hashtbl.length t.bases
let solves t = t.solves
let reset t = Hashtbl.reset t.bases

let solve t (p : Problem.qpp) =
  t.solves <- t.solves + 1;
  Obs.Span.with_ "resolve" ~attrs:[ ("solves", Obs.Json.Int t.solves) ]
  @@ fun () ->
  let result, bases =
    Qpp_solver.solve_warm ~alpha:t.alpha ?max_pivots:t.max_pivots
      ?candidates:t.candidates ~warm:(Hashtbl.find_opt t.bases) p
  in
  (* The pool merged worker results in candidate order; commit the new
     bases sequentially so the store stays single-writer. A candidate
     that turned infeasible keeps no stale basis. *)
  (match t.candidates with
  | None ->
      Hashtbl.reset t.bases;
      List.iter (fun (v0, b) -> Hashtbl.replace t.bases v0 b) bases
  | Some cs ->
      List.iter (fun v0 -> Hashtbl.remove t.bases v0) cs;
      List.iter (fun (v0, b) -> Hashtbl.replace t.bases v0 b) bases);
  Obs.Span.add_attr "warm_sources" (Obs.Json.Int (Hashtbl.length t.bases));
  result
