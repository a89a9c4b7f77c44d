let check name xs =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty input")

let sum xs = Array.fold_left ( +. ) 0. xs

let mean xs =
  check "mean" xs;
  sum xs /. float_of_int (Array.length xs)

let variance xs =
  check "variance" xs;
  let n = Array.length xs in
  if n < 2 then 0.
  else
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
    acc /. float_of_int (n - 1)

let stddev xs = sqrt (variance xs)

let min xs =
  check "min" xs;
  Array.fold_left Stdlib.min xs.(0) xs

let max xs =
  check "max" xs;
  Array.fold_left Stdlib.max xs.(0) xs

let check_finite name xs =
  Array.iter
    (fun x ->
      if not (Float.is_finite x) then
        invalid_arg ("Stats." ^ name ^ ": non-finite input"))
    xs

(* Stdlib's [Array.sort Float.compare] (a ternary heap sort) on a
   float array: the same comparisons in the same order, so the same
   permutation, with -0. and 0. equal and NaN below every number. The
   stdlib's recursive helpers and [Bottom] exception become loops here
   (a maxson of -1 is [Bottom]), so the elements stay unboxed and no
   comparison closure runs. *)
let[@inline] before (x : float) y = x < y || (x <> x && y = y)

let maxson (a : float array) l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x = if before a.(i31) a.(i31 + 1) then i31 + 1 else i31 in
    if before a.(x) a.(i31 + 2) then i31 + 2 else x
  end
  else if i31 + 1 < l && before a.(i31) a.(i31 + 1) then i31 + 1
  else if i31 < l then i31
  else -1

let sort (a : float array) =
  let l = Array.length a in
  (* trickle: sift a.(i) down the heap of the first l elements. *)
  for i = ((l + 1) / 3) - 1 downto 0 do
    let e = a.(i) in
    let i = ref i and j = ref (maxson a l i) in
    while !j >= 0 && before e a.(!j) do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a l !j
    done;
    a.(!i) <- e
  done;
  for top = l - 1 downto 2 do
    let e = a.(top) in
    a.(top) <- a.(0);
    (* bubble: move the hole at the root down to a leaf ... *)
    let i = ref 0 and j = ref (maxson a top 0) in
    while !j >= 0 do
      a.(!i) <- a.(!j);
      i := !j;
      j := maxson a top !j
    done;
    (* ... and trickleup: let e rise from there. *)
    let moving = ref true in
    while !moving do
      let father = (!i - 1) / 3 in
      if before a.(father) e then begin
        a.(!i) <- a.(father);
        if father > 0 then i := father
        else begin
          a.(0) <- e;
          moving := false
        end
      end
      else begin
        a.(!i) <- e;
        moving := false
      end
    done
  done;
  if l > 1 then begin
    let e = a.(1) in
    a.(1) <- a.(0);
    a.(0) <- e
  end

(* [sorted] must already be sorted ascending (all elements finite). *)
let percentile_of_sorted sorted q =
  if q < 0. || q > 100. then invalid_arg "Stats.percentile: q out of range";
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else
    let rank = q /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)

let percentile xs q =
  check "percentile" xs;
  check_finite "percentile" xs;
  let sorted = Array.copy xs in
  sort sorted;
  percentile_of_sorted sorted q

let median xs = percentile xs 50.

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  max : float;
}

let summarize xs =
  check "summarize" xs;
  check_finite "summarize" xs;
  let sorted = Array.copy xs in
  sort sorted;
  {
    n = Array.length sorted;
    mean = mean sorted;
    stddev = stddev sorted;
    min = sorted.(0);
    p50 = percentile_of_sorted sorted 50.;
    p95 = percentile_of_sorted sorted 95.;
    max = sorted.(Array.length sorted - 1);
  }

(* Empirical CDF sampled on a quantile grid: [(q, percentile q)] for
   each [q] in [quantiles] (default 0, 10, .., 100). Values are
   non-decreasing in [q] by construction (order statistics of one
   sorted copy); [] on empty input — a well-defined degenerate cell,
   not an exception. A singleton yields a constant (still monotone)
   curve. *)
let default_quantiles = Array.init 11 (fun i -> 10. *. float_of_int i)

let cdf ?(quantiles = default_quantiles) xs =
  if Array.length xs = 0 then []
  else begin
    check_finite "cdf" xs;
    let sorted = Array.copy xs in
    sort sorted;
    Array.to_list
      (Array.map (fun q -> (q, percentile_of_sorted sorted q)) quantiles)
  end

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.4f sd=%.4f min=%.4f p50=%.4f p95=%.4f max=%.4f"
    s.n s.mean s.stddev s.min s.p50 s.p95 s.max

type online = { mutable count : int; mutable m : float; mutable s : float }

let online_create () = { count = 0; m = 0.; s = 0. }

let online_add o x =
  o.count <- o.count + 1;
  let delta = x -. o.m in
  o.m <- o.m +. (delta /. float_of_int o.count);
  o.s <- o.s +. (delta *. (x -. o.m))

let online_mean o = o.m

let online_stddev o =
  if o.count < 2 then 0. else sqrt (o.s /. float_of_int (o.count - 1))

let online_count o = o.count

(* Parallel Welford combine (Chan et al.): merging two accumulators is
   equivalent to having folded both streams into one. *)
let online_merge a b =
  let n = a.count + b.count in
  if n = 0 then online_create ()
  else begin
    let na = float_of_int a.count and nb = float_of_int b.count in
    let nf = float_of_int n in
    let delta = b.m -. a.m in
    {
      count = n;
      m = a.m +. (delta *. nb /. nf);
      s = a.s +. b.s +. (delta *. delta *. na *. nb /. nf);
    }
  end
