let eccentricities m =
  let n = Metric.size m in
  Array.init n (fun v ->
      let worst = ref 0. in
      for w = 0 to n - 1 do
        if Metric.dist m v w > !worst then worst := Metric.dist m v w
      done;
      !worst)

let radius m = Array.fold_left Float.min infinity (eccentricities m)

let diameter m = Metric.diameter m

let center m =
  let ecc = eccentricities m in
  let best = ref 0 in
  Array.iteri (fun v e -> if e < ecc.(!best) then best := v) ecc;
  !best

let one_median m =
  let n = Metric.size m in
  let best = ref 0 and best_cost = ref infinity in
  for v = 0 to n - 1 do
    let c = Metric.average_distance m v in
    if c < !best_cost then begin
      best_cost := c;
      best := v
    end
  done;
  !best
