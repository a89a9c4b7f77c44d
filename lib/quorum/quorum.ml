type quorum = int array

type system = { universe : int; quorums : quorum array }

let normalize_quorum ~universe q =
  let sorted = Array.copy q in
  Array.sort compare sorted;
  let dedup = ref [] in
  Array.iter
    (fun v ->
      if v < 0 || v >= universe then invalid_arg "Quorum.make: element out of range";
      match !dedup with w :: _ when w = v -> () | _ -> dedup := v :: !dedup)
    sorted;
  let arr = Array.of_list (List.rev !dedup) in
  if Array.length arr = 0 then invalid_arg "Quorum.make: empty quorum";
  arr

let mem q v =
  let lo = ref 0 and hi = ref (Array.length q - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if q.(mid) = v then found := true
    else if q.(mid) < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let intersect a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    if i >= na || j >= nb then false
    else if a.(i) = b.(j) then true
    else if a.(i) < b.(j) then go (i + 1) j
    else go i (j + 1)
  in
  go 0 0

let intersection a b =
  let na = Array.length a and nb = Array.length b in
  let acc = ref [] in
  let rec go i j =
    if i < na && j < nb then
      if a.(i) = b.(j) then begin
        acc := a.(i) :: !acc;
        go (i + 1) (j + 1)
      end
      else if a.(i) < b.(j) then go (i + 1) j
      else go i (j + 1)
  in
  go 0 0;
  Array.of_list (List.rev !acc)

let make_unchecked ~universe quorums =
  if universe <= 0 then invalid_arg "Quorum.make: universe must be positive";
  if Array.length quorums = 0 then invalid_arg "Quorum.make: empty family";
  { universe; quorums = Array.map (normalize_quorum ~universe) quorums }

let all_intersecting s =
  let m = Array.length s.quorums in
  let ok = ref true in
  (try
     for i = 0 to m - 1 do
       for j = i + 1 to m - 1 do
         if not (intersect s.quorums.(i) s.quorums.(j)) then begin
           ok := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !ok

let make ~universe quorums =
  let s = make_unchecked ~universe quorums in
  if not (all_intersecting s) then
    invalid_arg "Quorum.make: family is not pairwise intersecting";
  s

let make_checked ~universe quorums =
  Qp_util.Qp_error.of_invalid_arg (fun () -> make ~universe quorums)

let universe s = s.universe

let quorums s = s.quorums

let n_quorums s = Array.length s.quorums

let quorum s i = s.quorums.(i)

let element_quorums s v =
  let acc = ref [] in
  Array.iteri (fun i q -> if mem q v then acc := i :: !acc) s.quorums;
  List.rev !acc

let subset a b = Array.for_all (fun v -> mem b v) a

let is_coterie s =
  let m = Array.length s.quorums in
  let ok = ref true in
  (try
     for i = 0 to m - 1 do
       for j = 0 to m - 1 do
         if i <> j && subset s.quorums.(i) s.quorums.(j) then begin
           ok := false;
           raise Exit
         end
       done
     done
   with Exit -> ());
  !ok

let degree s =
  let d = Array.make s.universe 0 in
  Array.iter (fun q -> Array.iter (fun v -> d.(v) <- d.(v) + 1) q) s.quorums;
  d

let pp ppf s =
  Format.fprintf ppf "quorum-system(universe=%d, quorums=%d)" s.universe
    (Array.length s.quorums)
