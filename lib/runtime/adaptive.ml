module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Placement = Qp_place.Placement

let distinct_hosts system placement qi =
  let q = Quorum.quorum system qi in
  List.sort_uniq compare (Array.to_list (Array.map (fun u -> placement.(u)) q))

let quorum_health system placement detector qi =
  List.fold_left
    (fun acc v -> acc *. (1. -. Detector.suspicion detector v))
    1.
    (distinct_hosts system placement qi)

let strategy system placement detector ~static =
  if Detector.healthy detector then static
  else
    let w qi = quorum_health system placement detector qi in
    match Strategy.reweight static w with
    | Some p -> p
    | None ->
        (* Every supported quorum looks dead; the reweighting has no
           signal, so fall back to the static optimum rather than
           divide by zero. *)
        static

type cached = {
  system : Quorum.system;
  static : Strategy.t;
  mutable placement : Placement.t;
  mutable version : int;
  mutable current : Strategy.t;
  mutable sampler : Qp_util.Rng.sampler;
}

let make system placement ~static =
  let sampler = Qp_util.Rng.sampler static in
  { system; static; placement; version = -1; current = static; sampler }

let refresh c detector =
  if c.version <> Detector.version detector then begin
    c.version <- Detector.version detector;
    let next = strategy c.system c.placement detector ~static:c.static in
    if next != c.current then c.sampler <- Qp_util.Rng.sampler next;
    c.current <- next
  end;
  c.current

let sampler c detector =
  ignore (refresh c detector);
  c.sampler

let set_placement c detector placement =
  c.placement <- placement;
  c.version <- -1;
  ignore (refresh c detector)
