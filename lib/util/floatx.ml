let eps = 1e-9

let approx ?(tol = eps) a b =
  Float.abs (a -. b) <= tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b))

let leq ?(tol = eps) a b = a <= b +. (tol *. Float.max 1. (Float.max (Float.abs a) (Float.abs b)))
