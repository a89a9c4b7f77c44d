type cmp = Le | Ge | Eq

type constr = { terms : (int * float) list; cmp : cmp; rhs : float }

type t = {
  n : int;
  obj : float array;
  mutable rows : constr list; (* reverse insertion order *)
  mutable n_rows : int;
  mutable start : int array option;
}

let create n =
  if n < 0 then invalid_arg "Lp.create: negative variable count";
  { n; obj = Array.make n 0.; rows = []; n_rows = 0; start = None }

let n_vars t = t.n

let n_constraints t = t.n_rows

let check_var t v name =
  if v < 0 || v >= t.n then invalid_arg ("Lp." ^ name ^ ": variable out of range")

let set_objective t v c =
  check_var t v "set_objective";
  t.obj.(v) <- c

let objective t = Array.copy t.obj

let with_objective t obj =
  if Array.length obj <> t.n then invalid_arg "Lp.with_objective: length mismatch";
  { t with obj = Array.copy obj }

let same_rows a b = a.n = b.n && a.rows == b.rows && a.start == b.start

let set_start t cols =
  Array.iter (fun v -> check_var t v "set_start") cols;
  t.start <- Some (Array.copy cols)

let start t = t.start

(* A variable mentioned once keeps the caller's pair, so rows built
   from shared pairs share them. *)
let merge_terms terms =
  let tbl = Hashtbl.create (List.length terms) in
  List.iter
    (fun ((v, c) as term) ->
      match Hashtbl.find_opt tbl v with
      | Some (_, cur) -> Hashtbl.replace tbl v (v, cur +. c)
      | None -> Hashtbl.replace tbl v term)
    terms;
  Hashtbl.fold (fun _ ((_, c) as term) acc -> if c = 0. then acc else term :: acc) tbl []

let add_constraint t terms cmp rhs =
  List.iter (fun (v, _) -> check_var t v "add_constraint") terms;
  t.rows <- { terms = merge_terms terms; cmp; rhs } :: t.rows;
  t.n_rows <- t.n_rows + 1

let constraints t = List.rev t.rows

let eval_terms terms x = List.fold_left (fun acc (v, c) -> acc +. (c *. x.(v))) 0. terms

let holds ~tol cmp ~rhs lhs =
  let slack_scale = Float.max 1. (Float.abs rhs) in
  match cmp with
  | Le -> lhs <= rhs +. (tol *. slack_scale)
  | Ge -> lhs >= rhs -. (tol *. slack_scale)
  | Eq -> Float.abs (lhs -. rhs) <= tol *. slack_scale

let is_feasible ?(tol = 1e-7) t x =
  Array.length x = t.n
  && Array.for_all (fun xi -> xi >= -.tol) x
  && List.for_all (fun { terms; cmp; rhs } -> holds ~tol cmp ~rhs (eval_terms terms x)) t.rows

let objective_value t x =
  let acc = ref 0. in
  for v = 0 to t.n - 1 do
    acc := !acc +. (t.obj.(v) *. x.(v))
  done;
  !acc

let pp ppf t = Format.fprintf ppf "lp(vars=%d, rows=%d)" t.n t.n_rows
