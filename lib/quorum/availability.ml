let quorum_masks s =
  Array.map
    (fun q -> Array.fold_left (fun m u -> m lor (1 lsl u)) 0 q)
    (Quorum.quorums s)

(* [p] must lie in [0, 1]; NaN fails this too. *)
let check_p fn p = if not (p >= 0. && p <= 1.) then invalid_arg (fn ^ ": p out of range")

let failure_probability s p =
  let n = Quorum.universe s in
  if n > 22 then invalid_arg "Availability.failure_probability: universe > 22";
  check_p "Availability.failure_probability" p;
  let masks = quorum_masks s in
  let total = ref 0. in
  (* [alive] ranges over subsets of live nodes; the system is up iff
     some quorum is contained in the live set. *)
  for alive = 0 to (1 lsl n) - 1 do
    let up = Array.exists (fun m -> m land alive = m) masks in
    if not up then begin
      let k = ref 0 in
      let m = ref alive in
      while !m <> 0 do
        m := !m land (!m - 1);
        incr k
      done;
      (* Probability of exactly this live set. *)
      total :=
        !total +. ((1. -. p) ** float_of_int !k *. (p ** float_of_int (n - !k)))
    end
  done;
  !total

let failure_probability_mc rng s p ~samples =
  if samples <= 0 then invalid_arg "Availability.failure_probability_mc: samples <= 0";
  check_p "Availability.failure_probability_mc" p;
  let n = Quorum.universe s in
  let masks = quorum_masks s in
  let alive = Array.make n false in
  let failures = ref 0 in
  for _ = 1 to samples do
    for u = 0 to n - 1 do
      alive.(u) <- Qp_util.Rng.uniform rng >= p
    done;
    let up =
      if n <= 62 then begin
        let alive_mask = ref 0 in
        for u = 0 to n - 1 do
          if alive.(u) then alive_mask := !alive_mask lor (1 lsl u)
        done;
        Array.exists (fun m -> m land !alive_mask = m) masks
      end
      else
        Array.exists
          (fun q -> Array.for_all (fun u -> alive.(u)) q)
          (Quorum.quorums s)
    in
    if not up then incr failures
  done;
  float_of_int !failures /. float_of_int samples

(* Smallest transversal via branch and bound on the quorum list:
   every transversal must hit the first quorum, recurse on each
   choice. *)
let min_transversal_size s =
  let quorums = Quorum.quorums s in
  let m = Array.length quorums in
  let best = ref max_int in
  let chosen = Hashtbl.create 16 in
  let rec go qi size =
    if size >= !best then ()
    else if qi = m then best := size
    else begin
      let q = quorums.(qi) in
      if Array.exists (fun u -> Hashtbl.mem chosen u) q then go (qi + 1) size
      else
        Array.iter
          (fun u ->
            Hashtbl.replace chosen u ();
            go (qi + 1) (size + 1);
            Hashtbl.remove chosen u)
          q
    end
  in
  go 0 0;
  !best

let resilience s = min_transversal_size s - 1

let naor_wool_load_lower_bound s =
  let c =
    Array.fold_left
      (fun acc q -> Stdlib.min acc (Array.length q))
      max_int (Quorum.quorums s)
  in
  let n = float_of_int (Quorum.universe s) in
  Float.max (1. /. float_of_int c) (float_of_int c /. n)
