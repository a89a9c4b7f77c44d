module Qp_error = Qp_util.Qp_error

type op =
  | Set_edge of { u : int; v : int; length : float }
  | Remove_edge of { u : int; v : int }
  | Set_capacity of { node : int; cap : float }
  | Set_cap_slack of float

let norm_edge u v = if u <= v then (u, v) else (v, u)

let validate_op ~nodes op =
  let check_vertex what x =
    if x < 0 || x >= nodes then
      Qp_error.invalid_instancef "delta: %s %d out of range [0, %d)" what x
        nodes
    else Ok ()
  in
  let open Qp_error in
  match op with
  | Set_edge { u; v; length } ->
      let* () = check_vertex "endpoint" u in
      let* () = check_vertex "endpoint" v in
      if u = v then Qp_error.invalid_instancef "delta: self-loop on %d" u
      else if not (Float.is_finite length && length > 0.) then
        Qp_error.invalid_instancef "delta: edge length must be positive finite \
                                    (got %g)"
          length
      else Ok ()
  | Remove_edge { u; v } ->
      let* () = check_vertex "endpoint" u in
      let* () = check_vertex "endpoint" v in
      if u = v then Qp_error.invalid_instancef "delta: self-loop on %d" u
      else Ok ()
  | Set_capacity { node; cap } ->
      let* () = check_vertex "node" node in
      if not (Float.is_finite cap && cap >= 0.) then
        Qp_error.invalid_instancef
          "delta: capacity must be non-negative finite (got %g)" cap
      else Ok ()
  | Set_cap_slack s ->
      if not (Float.is_finite s && s > 0.) then
        Qp_error.invalid_instancef
          "delta: cap-slack must be positive finite (got %g)" s
      else Ok ()

let validate ~nodes ops =
  let rec go = function
    | [] -> Ok ()
    | op :: rest -> (
        match validate_op ~nodes op with
        | Ok () -> go rest
        | Error _ as e -> e)
  in
  go ops
