type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

let copy t = { state = t.state }

(* splitmix64 finalizer: xor-shift multiply mix of the advancing
   counter. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let seed = int64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (int64 t) mask) in
  v mod bound

let uniform t =
  (* 53 random bits scaled into [0,1). *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let float t bound =
  if bound <= 0. then invalid_arg "Rng.float: bound must be positive";
  uniform t *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1.0 -. uniform t in
  -.log u /. rate

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let sample_distinct t k n =
  if k > n then invalid_arg "Rng.sample_distinct: k > n";
  (* Floyd's algorithm: k iterations, O(k) expected hash operations. *)
  let seen = Hashtbl.create (2 * k) in
  let acc = ref [] in
  for j = n - k to n - 1 do
    let r = int t (j + 1) in
    let v = if Hashtbl.mem seen r then j else r in
    Hashtbl.replace seen v ();
    acc := v :: !acc
  done;
  !acc

(* Prefix sums in the left-to-right order of [Array.fold_left ( +. )],
   so a draw of [float t total] and the first [i] with [r < cum.(i)]
   pick the index a linear scan accumulating the same sums picks. The
   weights are non-negative, so [cum] is non-decreasing and the first
   such [i] can be found by binary search. *)
type sampler = float array

let sampler w =
  let m = Array.length w in
  if m = 0 then invalid_arg "Rng.sampler: empty weights";
  let cum = Array.make m 0. in
  let acc = ref 0. in
  for i = 0 to m - 1 do
    let x = w.(i) in
    if not (Float.is_finite x && x >= 0.) then
      invalid_arg "Rng.sampler: weights must be finite and non-negative";
    acc := !acc +. x;
    cum.(i) <- !acc
  done;
  if not (!acc > 0. && Float.is_finite !acc) then
    invalid_arg "Rng.sampler: weights must have positive sum";
  cum

let draw t cum =
  let last = Array.length cum - 1 in
  let r = float t cum.(last) in
  (* The answer lies in [lo, hi]; [last] is the fallback when [r]
     reaches no earlier prefix sum. *)
  let lo = ref 0 and hi = ref last in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if r < Array.unsafe_get cum mid then hi := mid else lo := mid + 1
  done;
  !lo

let categorical t w = draw t (sampler w)
