let make k =
  if k < 1 then invalid_arg "Grid_qs.make: k >= 1 required";
  let universe = k * k in
  let quorum i j =
    let row = Array.init k (fun c -> (i * k) + c) in
    let col = Array.init k (fun r -> (r * k) + j) in
    Array.append row col (* duplicate (i,j) removed by normalization *)
  in
  let quorums =
    Array.init (k * k) (fun idx -> quorum (idx / k) (idx mod k))
  in
  (* Intersection is structural: Q_{i,j} and Q_{i',j'} share element
     (i, j') — row i of the first crosses column j' of the second. *)
  Quorum.make_unchecked ~universe quorums

let side s =
  let k = int_of_float (Float.round (sqrt (float_of_int (Quorum.universe s)))) in
  if k * k <> Quorum.universe s then invalid_arg "Grid_qs.side: not a grid system";
  k

let uniform_strategy s = Strategy.uniform s

let element_load k = float_of_int ((2 * k) - 1) /. float_of_int (k * k)
