let threshold votes =
  let total = Array.fold_left ( + ) 0 votes in
  (total / 2) + 1

let make votes =
  let n = Array.length votes in
  if n = 0 then invalid_arg "Voting_qs.make: empty vote assignment";
  if n > 20 then invalid_arg "Voting_qs.make: universe > 20";
  Array.iter (fun v -> if v <= 0 then invalid_arg "Voting_qs.make: non-positive votes") votes;
  let need = threshold votes in
  let quorums = ref [] in
  (* Enumerate subsets; keep those with a majority of votes that lose
     it when any single element is removed (minimality). *)
  for mask = 1 to (1 lsl n) - 1 do
    let total = ref 0 in
    for u = 0 to n - 1 do
      if mask land (1 lsl u) <> 0 then total := !total + votes.(u)
    done;
    if !total >= need then begin
      let minimal = ref true in
      for u = 0 to n - 1 do
        if mask land (1 lsl u) <> 0 && !total - votes.(u) >= need then minimal := false
      done;
      if !minimal then begin
        let members = ref [] in
        for u = n - 1 downto 0 do
          if mask land (1 lsl u) <> 0 then members := u :: !members
        done;
        quorums := Array.of_list !members :: !quorums
      end
    end
  done;
  (* Two majorities always share an element; skip the O(m^2) check. *)
  Quorum.make_unchecked ~universe:n (Array.of_list (List.rev !quorums))
