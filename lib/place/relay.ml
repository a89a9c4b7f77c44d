type analysis = { v0 : int; direct : float; relayed : float; ratio : float }

let bound = 5.

let relay_delay_via (p : Problem.qpp) f v0 =
  (* Avg_v d(v, v0) + Delta_f(v0): Eq. (8). For rate-weighted clients
     the average over v is rate-weighted as in Section 6. *)
  Problem.avg_dist p v0 +. Delay.client_max_delay p f v0

let analyze (p : Problem.qpp) f =
  let delays = Delay.all_client_max_delays p f in
  let v0 = ref 0 in
  Array.iteri (fun v d -> if d < delays.(!v0) then v0 := v) delays;
  let v0 = !v0 in
  let direct = Delay.avg_max_delay p f in
  let relayed = relay_delay_via p f v0 in
  let ratio = if direct = 0. then if relayed = 0. then 1. else infinity else relayed /. direct in
  { v0; direct; relayed; ratio }
