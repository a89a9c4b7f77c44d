let mul_check a b =
  if a = 0 || b = 0 then 0
  else
    let r = a * b in
    if r / b <> a then failwith "Combin: 63-bit overflow" else r

let binomial n k =
  if k < 0 || k > n then 0
  else
    let k = if k > n - k then n - k else k in
    (* Multiply then divide keeps intermediate results integral: after
       i steps the accumulator equals binomial(n-k+i, i). *)
    let rec go acc i =
      if i > k then acc else go (mul_check acc (n - k + i) / i) (i + 1)
    in
    go 1 1

let factorial n =
  if n < 0 then invalid_arg "Combin.factorial: negative";
  let rec go acc i = if i > n then acc else go (mul_check acc i) (i + 1) in
  go 1 1

let choose_iter n k f =
  if k < 0 || k > n then ()
  else
    let rec go start chosen remaining =
      if remaining = 0 then f (List.rev chosen)
      else
        for v = start to n - remaining do
          go (v + 1) (v :: chosen) (remaining - 1)
        done
    in
    go 0 [] k

(* Lanczos approximation of log-gamma (g = 7, 9 coefficients); accurate
   to ~1e-13 for positive arguments, ample for gap reporting. *)
let lanczos =
  [|
    0.99999999999980993; 676.5203681218851; -1259.1392167224028;
    771.32342877765313; -176.61502916214059; 12.507343278686905;
    -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x < 0.5 then
    (* Reflection formula. *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1. -. x)
  else
    let x = x -. 1. in
    let a = ref lanczos.(0) in
    let t = x +. 7.5 in
    for i = 1 to 8 do
      a := !a +. (lanczos.(i) /. (x +. float_of_int i))
    done;
    (0.5 *. log (2. *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !a

let log_binomial n k =
  if k < 0 || k > n then neg_infinity
  else
    log_gamma (float_of_int (n + 1))
    -. log_gamma (float_of_int (k + 1))
    -. log_gamma (float_of_int (n - k + 1))
