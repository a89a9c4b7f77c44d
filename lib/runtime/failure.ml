module Rng = Qp_util.Rng

type model = Static of float | Dynamic of { mtbf : float; mttr : float }

let validate = function
  | Static p ->
      if not (p >= 0. && p <= 1.) then
        invalid_arg "Failure.validate: Static probability must lie in [0, 1]"
  | Dynamic { mtbf; mttr } ->
      let ok t = t > 0. && Float.is_finite t in
      if not (ok mtbf && ok mttr) then
        invalid_arg "Failure.validate: mtbf and mttr must be positive and finite"

let node_availability = function
  | Static p -> 1. -. p
  | Dynamic { mtbf; mttr } -> mtbf /. (mtbf +. mttr)

let install_churn model ~n ~rng ~up sim =
  match model with
  | Static _ -> ()
  | Dynamic { mtbf; mttr } ->
      let rec crash node sim =
        up.(node) <- false;
        Event.schedule_in sim (Rng.exponential rng (1. /. mttr)) (repair node)
      and repair node sim =
        up.(node) <- true;
        Event.schedule_in sim (Rng.exponential rng (1. /. mtbf)) (crash node)
      in
      for v = 0 to n - 1 do
        Event.schedule_in sim (Rng.exponential rng (1. /. mtbf)) (crash v)
      done

let probe_up model ~rng ~up node =
  match model with
  | Static p -> Rng.uniform rng >= p
  | Dynamic _ -> up.(node)
