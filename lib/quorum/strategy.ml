type t = float array

let validate s p =
  if Array.length p <> Quorum.n_quorums s then
    invalid_arg "Strategy.validate: length mismatch";
  Array.iter (fun x -> if x < 0. then invalid_arg "Strategy.validate: negative probability") p;
  let total = Array.fold_left ( +. ) 0. p in
  if not (Qp_util.Floatx.approx total 1.) then
    invalid_arg "Strategy.validate: probabilities do not sum to 1"

let uniform s =
  let m = Quorum.n_quorums s in
  Array.make m (1. /. float_of_int m)

let of_weights s w =
  if Array.length w <> Quorum.n_quorums s then
    invalid_arg "Strategy.of_weights: length mismatch";
  let total = Array.fold_left ( +. ) 0. w in
  Array.iter (fun x -> if x < 0. then invalid_arg "Strategy.of_weights: negative weight") w;
  if total <= 0. then invalid_arg "Strategy.of_weights: zero total weight";
  Array.map (fun x -> x /. total) w

let element_load s p u =
  let acc = ref 0. in
  Array.iteri (fun i q -> if Quorum.mem q u then acc := !acc +. p.(i)) (Quorum.quorums s);
  !acc

let loads s p =
  let l = Array.make (Quorum.universe s) 0. in
  Array.iteri
    (fun i q -> Array.iter (fun u -> l.(u) <- l.(u) +. p.(i)) q)
    (Quorum.quorums s);
  l

let system_load s p = Array.fold_left Float.max 0. (loads s p)

let total_load s p = Array.fold_left ( +. ) 0. (loads s p)

let reweight p w =
  let scaled =
    Array.mapi
      (fun i x ->
        let f = w i in
        if f < 0. then invalid_arg "Strategy.reweight: negative weight factor";
        x *. f)
      p
  in
  let total = Array.fold_left ( +. ) 0. scaled in
  if total <= 1e-12 then None else Some (Array.map (fun x -> x /. total) scaled)

let mix p q lambda =
  if Array.length p <> Array.length q then invalid_arg "Strategy.mix: length mismatch";
  if lambda < 0. || lambda > 1. then invalid_arg "Strategy.mix: lambda out of range";
  Array.init (Array.length p) (fun i -> (lambda *. p.(i)) +. ((1. -. lambda) *. q.(i)))
