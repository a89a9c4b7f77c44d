module Graph = Qp_graph.Graph
module Qp_error = Qp_util.Qp_error

type t = {
  name : string;
  regions : string array;
  rtt_ms : float array array; (* symmetric, zero diagonal *)
  intra_ms : float;
}

(* ------------------------------------------------------------------ *)
(* Embedded tables                                                     *)
(* ------------------------------------------------------------------ *)

(* Inter-region round-trip times in milliseconds, compiled in as data
   (no file I/O). The figures are representative public measurements of
   the respective clouds, rounded to whole milliseconds; the scenario
   machinery treats them as a fixed synthetic geography, so accuracy to
   the living network is not required — only realism of scale and
   asymmetry (trans-Pacific >> intra-continent >> intra-region).

   Each table lists the strict upper triangle row by row; [expand]
   mirrors it into the full symmetric matrix with a zero diagonal.
   Distances between nodes of the same region use [intra_ms]. *)

let expand name regions intra_ms upper =
  let r = Array.length regions in
  let m = Array.make_matrix r r 0. in
  let k = ref 0 in
  for i = 0 to r - 1 do
    for j = i + 1 to r - 1 do
      m.(i).(j) <- upper.(!k);
      m.(j).(i) <- upper.(!k);
      incr k
    done
  done;
  assert (!k = Array.length upper);
  { name; regions; rtt_ms = m; intra_ms }

(* us-east-1 (N. Virginia), eu-west-1 (Ireland), ap-northeast-1
   (Tokyo): the classic three-continent deployment. *)
let aws3 =
  expand "aws-3"
    [| "us-east-1"; "eu-west-1"; "ap-northeast-1" |]
    1.0
    [| (* ue-ew *) 75.; (* ue-an *) 165.; (* ew-an *) 210. |]

(* Nine AWS regions spanning the Americas, Europe and Asia. Order:
   us-east-1, us-west-1, us-west-2, eu-west-1, eu-central-1,
   ap-southeast-1, ap-northeast-1, sa-east-1, ap-south-1. *)
let aws9 =
  expand "aws-9"
    [| "us-east-1"; "us-west-1"; "us-west-2"; "eu-west-1"; "eu-central-1";
       "ap-southeast-1"; "ap-northeast-1"; "sa-east-1"; "ap-south-1" |]
    1.0
    [| (* us-east-1 -> *) 62.; 68.; 75.; 88.; 230.; 165.; 115.; 185.;
       (* us-west-1 -> *) 22.; 140.; 150.; 170.; 105.; 190.; 235.;
       (* us-west-2 -> *) 130.; 145.; 165.; 95.; 180.; 220.;
       (* eu-west-1 -> *) 25.; 180.; 220.; 185.; 120.;
       (* eu-central-1 -> *) 160.; 225.; 200.; 110.;
       (* ap-southeast-1 -> *) 70.; 325.; 60.;
       (* ap-northeast-1 -> *) 255.; 120.;
       (* sa-east-1 -> *) 300. |]

(* Six GCP regions. Order: us-central1, us-east1, europe-west1,
   europe-north1, asia-east1, asia-south1. *)
let gcp6 =
  expand "gcp-6"
    [| "us-central1"; "us-east1"; "europe-west1"; "europe-north1";
       "asia-east1"; "asia-south1" |]
    1.0
    [| (* us-central1 -> *) 32.; 105.; 120.; 160.; 250.;
       (* us-east1 -> *) 92.; 110.; 185.; 230.;
       (* europe-west1 -> *) 30.; 250.; 130.;
       (* europe-north1 -> *) 270.; 150.;
       (* asia-east1 -> *) 85. |]

let tables = [ aws3; aws9; gcp6 ]

let names () = List.map (fun t -> t.name) tables

let find name =
  match List.find_opt (fun t -> t.name = name) tables with
  | Some t -> Ok t
  | None ->
      Qp_error.invalid_instancef "unknown region table %S (%s)" name
        (String.concat "|" (names ()))

let name t = t.name
let regions t = t.regions
let n_regions t = Array.length t.regions
let rtt t i j = t.rtt_ms.(i).(j)

let region_of_node t v =
  if v < 0 then invalid_arg "Region.region_of_node: negative node";
  v mod Array.length t.regions

let nodes_of_region t ~nodes r =
  if r < 0 || r >= Array.length t.regions then
    invalid_arg "Region.nodes_of_region: region out of range";
  let acc = ref [] in
  for v = nodes - 1 downto 0 do
    if region_of_node t v = r then acc := v :: !acc
  done;
  !acc

(* The complete weighted graph on [nodes] vertices: node [v] lives in
   region [v mod n_regions] and edge lengths are the table RTTs
   (intra-region pairs use [intra_ms]). Raw RTT tables routinely
   violate the triangle inequality by a few milliseconds (routing
   detours); the shortest-path closure taken by [Metric.of_graph]
   restores it, which is exactly how the placement machinery consumes
   the topology. *)
let graph t ~nodes =
  if nodes < Array.length t.regions then
    invalid_arg
      (Printf.sprintf
         "Region.graph: %s needs at least %d nodes (one per region), got %d"
         t.name (Array.length t.regions) nodes);
  let g = Graph.create nodes in
  for u = 0 to nodes - 1 do
    for v = u + 1 to nodes - 1 do
      let ru = region_of_node t u and rv = region_of_node t v in
      let len = if ru = rv then t.intra_ms else t.rtt_ms.(ru).(rv) in
      Graph.add_edge g u v len
    done
  done;
  g
