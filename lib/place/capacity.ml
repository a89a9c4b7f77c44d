module Metric = Qp_graph.Metric

type expansion = {
  metric : Metric.t;
  capacities : float array;
  original_of_copy : int array;
}

let expand metric caps ~load ?(max_copies = 64) () =
  if load <= 0. then invalid_arg "Capacity.expand: load must be positive";
  let n = Metric.size metric in
  if Array.length caps <> n then invalid_arg "Capacity.expand: capacity length mismatch";
  let copies = ref [] in
  for v = n - 1 downto 0 do
    let k = int_of_float (Float.floor ((caps.(v) +. 1e-12) /. load)) in
    let k = Stdlib.min k max_copies in
    for _ = 1 to k do
      copies := v :: !copies
    done
  done;
  let original_of_copy = Array.of_list !copies in
  let m = Array.length original_of_copy in
  if m = 0 then invalid_arg "Capacity.expand: no node can hold any element";
  let d =
    Array.init m (fun i ->
        Array.init m (fun j ->
            Metric.dist metric original_of_copy.(i) original_of_copy.(j)))
  in
  {
    metric = Metric.of_matrix d;
    capacities = Array.make m load;
    original_of_copy;
  }

