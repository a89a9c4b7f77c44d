module Obs = Qp_obs

(* Cooperative cancellation for serving front ends: a wall-clock
   deadline checked once per pivot (and once on entry). Domain-local —
   not process-wide — so concurrent solves dispatched onto different
   pool domains each observe only their own deadline. A
   [Qp_par.Pool] context hook snapshots the submitting domain's
   deadline at submit time, so candidate LPs parallelized below a
   guarded solve still inherit it. NaN means "no deadline" — the hot
   path then costs one DLS load and a NaN test per pivot, no clock
   read. Shared by the simplex pivot loop and the tree
   branch-and-bound. *)
let deadline_key : float Domain.DLS.key = Domain.DLS.new_key (fun () -> Float.nan)

let set_deadline = function
  | None -> Domain.DLS.set deadline_key Float.nan
  | Some t -> Domain.DLS.set deadline_key t

let get_deadline () =
  let d = Domain.DLS.get deadline_key in
  if Float.is_nan d then None else Some d

let () =
  Qp_par.Pool.register_context_hook (fun () ->
      let d = Domain.DLS.get deadline_key in
      fun thunk ->
        let prev = Domain.DLS.get deadline_key in
        Domain.DLS.set deadline_key d;
        Fun.protect
          ~finally:(fun () -> Domain.DLS.set deadline_key prev)
          thunk)

let check_deadline () =
  let d = Domain.DLS.get deadline_key in
  if (not (Float.is_nan d)) && Obs.Core.now () > d then
    raise
      (Qp_util.Qp_error.Error
         (Internal "Simplex: deadline exceeded (cooperative cancellation)"))
