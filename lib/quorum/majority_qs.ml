module Combin = Qp_util.Combin

let check_params n t =
  if n < 1 then invalid_arg "Majority_qs: n >= 1 required";
  if t > n then invalid_arg "Majority_qs: t <= n required";
  if 2 * t <= n then invalid_arg "Majority_qs: 2t > n required for intersection"

let n_quorums ~n ~t =
  check_params n t;
  Combin.binomial n t

let make ~n ~t =
  check_params n t;
  if Combin.binomial n t > 500_000 then
    invalid_arg "Majority_qs.make: family too large to enumerate";
  let quorums = ref [] in
  Combin.choose_iter n t (fun subset -> quorums := Array.of_list subset :: !quorums);
  (* Any two size-t subsets with 2t > n intersect by pigeonhole. *)
  Quorum.make_unchecked ~universe:n (Array.of_list (List.rev !quorums))

let quorums_containing_first_of ~n ~t i =
  check_params n t;
  if i < 0 || i >= n then invalid_arg "Majority_qs: element out of range";
  Combin.binomial (n - i - 1) (t - 1)

let sample_quorum rng ~n ~t =
  check_params n t;
  let chosen = Qp_util.Rng.sample_distinct rng t n in
  let arr = Array.of_list chosen in
  Array.sort compare arr;
  arr
