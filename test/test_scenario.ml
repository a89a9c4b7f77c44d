(* The geo-scenario subsystem: region RTT tables, read/write quorum
   mixes, skewed client populations, spec parsing and the runner's
   determinism. The reduction properties here are the PR's contract:
   the symmetric corner of the read/write model reproduces the
   historical single-strategy pipeline byte for byte. *)

module Qp_error = Qp_util.Qp_error
module Rng = Qp_util.Rng
module Stats = Qp_util.Stats
module Quorum = Qp_quorum.Quorum
module Strategy = Qp_quorum.Strategy
module Rw_qs = Qp_quorum.Rw_qs
module Spec = Qp_instance.Spec
module Region = Qp_instance.Region
module Clients = Qp_scenario.Clients
module Scenario = Qp_scenario.Scenario
module Runner = Qp_scenario.Runner

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.fail ("unexpected error: " ^ Qp_error.to_string e)

let check_invalid what = function
  | Error (Qp_error.Invalid_instance _) -> ()
  | Error e ->
      Alcotest.fail
        (Printf.sprintf "%s: wrong error category: %s" what
           (Qp_error.to_string e))
  | Ok _ -> Alcotest.fail (what ^ ": expected Invalid_instance")

(* ------------------------------------------------------------------ *)
(* Region tables                                                       *)
(* ------------------------------------------------------------------ *)

let test_region_tables () =
  Alcotest.(check (list string))
    "registered tables" [ "aws-3"; "aws-9"; "gcp-6" ] (Region.names ());
  let t = ok_exn (Region.find "aws-3") in
  Alcotest.(check int) "aws-3 regions" 3 (Region.n_regions t);
  check_invalid "unknown table" (Region.find "azure-5");
  (* RTT matrices are symmetric with a zero diagonal. *)
  List.iter
    (fun name ->
      let t = ok_exn (Region.find name) in
      let r = Region.n_regions t in
      for i = 0 to r - 1 do
        Alcotest.(check (float 0.)) "zero diagonal" 0. (Region.rtt t i i);
        for j = 0 to r - 1 do
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s rtt symmetric (%d,%d)" name i j)
            (Region.rtt t i j) (Region.rtt t j i)
        done
      done)
    (Region.names ())

let test_region_residency () =
  let t = ok_exn (Region.find "aws-3") in
  (* Round-robin residency: node v lives in region v mod 3, so any
     prefix of node ids covers the regions as evenly as possible. *)
  Alcotest.(check int) "node 0" 0 (Region.region_of_node t 0);
  Alcotest.(check int) "node 4" 1 (Region.region_of_node t 4);
  Alcotest.(check (list int)) "region 1 of 7 nodes" [ 1; 4 ]
    (Region.nodes_of_region t ~nodes:7 1);
  Alcotest.(check string) "region name" "eu-west-1"
    (Region.regions t).(Region.region_of_node t 4)

let test_region_topology_in_spec () =
  let spec =
    { Spec.default with Spec.topology = "region:aws-3"; nodes = 9 }
  in
  let p = ok_exn (Spec.build spec) in
  Alcotest.(check int) "nodes" 9 (Qp_place.Problem.n_nodes p);
  (* Intra-region distance (1 ms) is far below inter-region RTT. *)
  let t = ok_exn (Region.find "aws-3") in
  let g = Region.graph t ~nodes:9 in
  let m = Qp_graph.Metric.of_graph g in
  Alcotest.(check (float 1e-9)) "intra-region" 1.
    (Qp_graph.Metric.dist m 0 3);
  Alcotest.(check (float 1e-9)) "us-east-1 <-> eu-west-1" 75.
    (Qp_graph.Metric.dist m 0 1);
  check_invalid "too few nodes"
    (Spec.build { spec with Spec.nodes = 2 });
  check_invalid "unknown region table"
    (Spec.build { spec with Spec.topology = "region:nope" });
  (* Deterministic: the rng is unused, equal specs build byte-identical
     instances. *)
  Alcotest.(check string) "deterministic"
    (Qp_place.Serialize.problem_to_string (ok_exn (Spec.build spec)))
    (Qp_place.Serialize.problem_to_string (ok_exn (Spec.build spec)))

(* ------------------------------------------------------------------ *)
(* Read/write quorum systems                                           *)
(* ------------------------------------------------------------------ *)

let test_rw_constructions () =
  let g = ok_exn (Rw_qs.of_string_opt "rw-grid:3" |> Option.get) in
  Alcotest.(check int) "grid reads" 3 (Rw_qs.n_reads g);
  Alcotest.(check int) "grid writes" 3 (Rw_qs.n_writes g);
  Alcotest.(check int) "grid universe" 9 (Rw_qs.universe g);
  Alcotest.(check bool) "grid safe" true (Rw_qs.intersection_ok g);
  (* Reads are rows: they deliberately do NOT intersect each other. *)
  Alcotest.(check bool) "reads not a coterie" false
    (Quorum.all_intersecting (Rw_qs.reads g));
  let r = ok_exn (Rw_qs.of_string_opt "rowa:5" |> Option.get) in
  Alcotest.(check int) "rowa reads" 5 (Rw_qs.n_reads r);
  Alcotest.(check int) "rowa writes" 1 (Rw_qs.n_writes r);
  Alcotest.(check bool) "rowa safe" true (Rw_qs.intersection_ok r);
  let m = ok_exn (Rw_qs.of_string_opt "rw-majority:5:2:4" |> Option.get) in
  Alcotest.(check int) "majority reads" 10 (Rw_qs.n_reads m);
  Alcotest.(check int) "majority writes" 5 (Rw_qs.n_writes m);
  Alcotest.(check bool) "majority safe" true (Rw_qs.intersection_ok m);
  Alcotest.(check bool) "plain names fall through" true
    (Rw_qs.of_string_opt "grid:3" = None);
  check_invalid "r + w <= n rejected"
    (Option.get (Rw_qs.of_string_opt "rw-majority:5:2:3"));
  check_invalid "2w <= n rejected"
    (Option.get (Rw_qs.of_string_opt "rw-majority:6:4:3"))

let test_rw_make_validates () =
  let singles n =
    Quorum.make_unchecked ~universe:n (Array.init n (fun v -> [| v |]))
  in
  (* Singleton writes never pairwise intersect for n >= 2. *)
  check_invalid "writes must interset"
    (Rw_qs.make ~reads:(singles 3) ~writes:(singles 3));
  let full n = Quorum.make_unchecked ~universe:n [| Array.init n Fun.id |] in
  check_invalid "universes must match"
    (Rw_qs.make ~reads:(singles 3) ~writes:(full 4));
  let rw = ok_exn (Rw_qs.make ~reads:(singles 3) ~writes:(full 3)) in
  Alcotest.(check bool) "rowa shape accepted" true (Rw_qs.intersection_ok rw);
  (* Cross-intersection violation: a read disjoint from a write. *)
  let reads = Quorum.make_unchecked ~universe:4 [| [| 0 |] |] in
  let writes = Quorum.make_unchecked ~universe:4 [| [| 1; 2; 3 |] |] in
  check_invalid "read missing a write" (Rw_qs.make ~reads ~writes)

let test_rw_combined_indices () =
  let g = ok_exn (Rw_qs.of_string_opt "rw-grid:2" |> Option.get) in
  let c = Rw_qs.combined g in
  Alcotest.(check int) "combined count" 4 (Quorum.n_quorums c);
  Alcotest.(check (array int)) "read indices" [| 0; 1 |]
    (Rw_qs.read_indices g);
  Alcotest.(check (array int)) "write indices" [| 2; 3 |]
    (Rw_qs.write_indices g);
  (* Shared systems keep the original family untouched. *)
  let s = Qp_quorum.Grid_qs.make 3 in
  let shared = Rw_qs.of_system s in
  Alcotest.(check bool) "shared combined == original" true
    (Rw_qs.combined shared == s)

(* The PR's byte-identity contract: a problem built from the symmetric
   embedding at read_fraction 1.0 (or 0.5 with read = write) is
   byte-identical to the historical single-strategy problem. *)
let test_rw_reduction_byte_identity () =
  let spec = { Spec.default with Spec.topology = "complete"; nodes = 9 } in
  let p = ok_exn (Spec.build spec) in
  let rw = Rw_qs.of_system p.Qp_place.Problem.system in
  let u = Strategy.uniform p.Qp_place.Problem.system in
  let build strategy =
    Qp_place.Serialize.problem_to_string
      (Qp_place.Problem.make_qpp ~metric:p.Qp_place.Problem.metric
         ~capacities:p.Qp_place.Problem.capacities
         ~system:p.Qp_place.Problem.system ~strategy ())
  in
  let baseline = build p.Qp_place.Problem.strategy in
  Alcotest.(check string) "rho = 1.0 reduces exactly" baseline
    (build (Rw_qs.mixed rw ~read:u ~write:u ~read_fraction:1.0));
  Alcotest.(check string) "rho = 0.5 with read = write reduces exactly"
    baseline
    (build (Rw_qs.mixed rw ~read:u ~write:u ~read_fraction:0.5))

let prop_rw_cross_intersection =
  QCheck.Test.make ~name:"rw families: every read meets every write"
    ~count:12
    QCheck.(int_range 1 5)
    (fun k ->
      let g = Result.get_ok (Option.get (Rw_qs.of_string_opt
          (Printf.sprintf "rw-grid:%d" k))) in
      let r = Result.get_ok (Option.get (Rw_qs.of_string_opt
          (Printf.sprintf "rowa:%d" (k + 1)))) in
      Rw_qs.intersection_ok g && Rw_qs.intersection_ok r)

let prop_rw_mixed_is_distribution =
  QCheck.Test.make ~name:"mixed strategy is a distribution at any rho"
    ~count:30
    QCheck.(pair (int_range 1 4) (float_range 0. 1.))
    (fun (k, rho) ->
      let rw = Result.get_ok (Option.get (Rw_qs.of_string_opt
          (Printf.sprintf "rw-grid:%d" k))) in
      let m =
        Rw_qs.mixed rw ~read:(Rw_qs.uniform_read rw)
          ~write:(Rw_qs.uniform_write rw) ~read_fraction:rho
      in
      Strategy.validate (Rw_qs.combined rw) m;
      Float.abs (Array.fold_left ( +. ) 0. m -. 1.) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Client populations                                                  *)
(* ------------------------------------------------------------------ *)

let prop_zipf_deterministic_sum1 =
  QCheck.Test.make
    ~name:"zipf rates: deterministic per seed, sum to 1" ~count:30
    QCheck.(pair (int_range 1 40) (int_range 0 1000))
    (fun (nodes, seed) ->
      let r1 = Result.get_ok (Clients.rates (Clients.Zipf 1.1) ~nodes ~seed) in
      let r2 = Result.get_ok (Clients.rates (Clients.Zipf 1.1) ~nodes ~seed) in
      r1 = r2
      && Float.abs (Array.fold_left ( +. ) 0. r1 -. 1.) < 1e-9
      && Array.for_all (fun x -> x > 0.) r1)

let test_region_weight_rates () =
  let t = ok_exn (Region.find "aws-3") in
  let r =
    ok_exn
      (Clients.rates ~table:t (Clients.Region_weights [| 2.; 1.; 0. |])
         ~nodes:6 ~seed:1)
  in
  Alcotest.(check (float 1e-9)) "sums to 1" 1. (Array.fold_left ( +. ) 0. r);
  (* Region 2's nodes (2 and 5) are silenced. *)
  Alcotest.(check (float 0.)) "node 2 silent" 0. r.(2);
  Alcotest.(check (float 0.)) "node 5 silent" 0. r.(5);
  (* Region 0 carries twice region 1's share, split over two nodes. *)
  Alcotest.(check (float 1e-9)) "node 0 share" (1. /. 3.) r.(0);
  check_invalid "weight count must match regions"
    (Clients.rates ~table:t (Clients.Region_weights [| 1.; 1. |]) ~nodes:6
       ~seed:1);
  check_invalid "regions skew needs a table"
    (Clients.rates (Clients.Region_weights [| 1.; 1.; 1. |]) ~nodes:6 ~seed:1);
  check_invalid "all-zero weights"
    (Clients.rates ~table:t (Clients.Region_weights [| 0.; 0.; 0. |]) ~nodes:6
       ~seed:1)

(* ------------------------------------------------------------------ *)
(* Stats tiny-sample guards                                            *)
(* ------------------------------------------------------------------ *)

let test_stats_guards () =
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "cdf empty" []
    (Stats.cdf [||]);
  (* Singletons: degenerate but finite and monotone, never NaN. *)
  let s = Stats.summarize [| 42. |] in
  Alcotest.(check int) "singleton n" 1 s.Stats.n;
  Alcotest.(check (float 0.)) "singleton stddev" 0. s.Stats.stddev;
  Alcotest.(check (float 0.)) "singleton p95" 42. s.Stats.p95;
  let cdf = Stats.cdf [| 42. |] in
  Alcotest.(check int) "singleton cdf points" 11 (List.length cdf);
  List.iter
    (fun (_, v) -> Alcotest.(check (float 0.)) "constant curve" 42. v)
    cdf

let prop_cdf_monotone =
  QCheck.Test.make ~name:"cdf is monotone in the quantile" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 1 40) (float_range (-50.) 50.))
    (fun xs ->
      let cdf = Stats.cdf (Array.of_list xs) in
      let rec mono = function
        | (_, v1) :: ((_, v2) :: _ as rest) -> v1 <= v2 +. 1e-12 && mono rest
        | _ -> true
      in
      mono cdf)

(* ------------------------------------------------------------------ *)
(* Spec parsing                                                        *)
(* ------------------------------------------------------------------ *)

let minimal_spec =
  {|{"schema":"qp-scenario-spec/1","name":"t","topology":"region:aws-3",
     "nodes":9,"system":"grid:3"}|}

let test_scenario_parsing () =
  let sc = ok_exn (Scenario.of_string minimal_spec) in
  Alcotest.(check string) "name" "t" sc.Scenario.name;
  Alcotest.(check (float 0.)) "default rho" 0.5 sc.Scenario.read_fraction;
  Alcotest.(check bool) "default skew" true (sc.Scenario.skew = Clients.Uniform);
  Alcotest.(check string) "default alg" "auto" sc.Scenario.alg;
  check_invalid "missing field"
    (Scenario.of_string {|{"schema":"qp-scenario-spec/1","name":"t"}|});
  check_invalid "unknown field"
    (Scenario.of_string
       {|{"schema":"qp-scenario-spec/1","name":"t","topology":"complete",
          "nodes":4,"system":"triangle","reads_fraction":0.9}|});
  check_invalid "wrong schema"
    (Scenario.of_string {|{"schema":"qp-scenario-spec/2","name":"t"}|});
  check_invalid "malformed json" (Scenario.of_string "{nope");
  check_invalid "bad skew"
    (Scenario.of_string
       {|{"schema":"qp-scenario-spec/1","name":"t","topology":"complete",
          "nodes":4,"system":"triangle","clients":{"skew":"hot"}}|});
  check_invalid "bad rho"
    (Scenario.of_string
       {|{"schema":"qp-scenario-spec/1","name":"t","topology":"complete",
          "nodes":4,"system":"triangle","read_fraction":1.5}|});
  let zipf =
    ok_exn
      (Scenario.of_string
         {|{"schema":"qp-scenario-spec/1","name":"z","topology":"complete",
            "nodes":4,"system":"triangle","clients":{"skew":"zipf","exponent":2},
            "service":"fixed:3","protocol":"sequential","offered_loads":[0.5,2]}|})
  in
  Alcotest.(check bool) "zipf parsed" true (zipf.Scenario.skew = Clients.Zipf 2.);
  Alcotest.(check bool) "service parsed" true
    (zipf.Scenario.service = Qp_sim.Access_sim.Fixed 3.);
  Alcotest.(check bool) "protocol parsed" true
    (zipf.Scenario.protocol = Qp_sim.Access_sim.Sequential)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let small_scenario =
  { Scenario.default with
    Scenario.name = "test-small";
    topology = "region:aws-3";
    nodes = 9;
    system = "rw-grid:3";
    read_fraction = 0.9;
    offered_loads = [| 1.0 |];
    accesses_per_client = 40;
    service = Qp_sim.Access_sim.Fixed 1.0;
    alg = "greedy";
    seed = 5 }

let test_runner_record_shape () =
  let r = ok_exn (Runner.run small_scenario) in
  Alcotest.(check int) "regions" 3 (Array.length r.Runner.regions);
  Alcotest.(check int) "curve cells" 1 (Array.length r.Runner.curve);
  Alcotest.(check int) "cdf groups" 3 (List.length r.Runner.region_cdfs);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Runner.region ^ " has active clients") true (c.Runner.count > 0))
    r.Runner.region_cdfs;
  let cell = r.Runner.curve.(0) in
  Alcotest.(check bool) "throughput positive" true (cell.Runner.throughput > 0.);
  Alcotest.(check bool) "accesses ran" true (cell.Runner.accesses > 0);
  (* The record round-trips through the telemetry JSON. *)
  let doc = Qp_obs.Json.to_string (Runner.to_json r) in
  let json = Qp_obs.Json.of_string doc in
  Alcotest.(check (option string)) "schema field" (Some "qp-scenario/1")
    (Option.bind (Qp_obs.Json.member "schema" json) Qp_obs.Json.to_str);
  (match Qp_obs.Json.member "region_cdfs" json with
  | Some (Qp_obs.Json.Obj groups) ->
      Alcotest.(check int) "cdf keys serialized" 3 (List.length groups)
  | _ -> Alcotest.fail "region_cdfs must be an object")

let test_runner_jobs_deterministic () =
  let render pool =
    let r = ok_exn (Runner.run ~pool small_scenario) in
    Qp_obs.Json.to_string (Runner.to_json r)
  in
  let p1 = Qp_par.Pool.create ~jobs:1 in
  let p3 = Qp_par.Pool.create ~jobs:3 in
  let a = render p1 and b = render p3 in
  Qp_par.Pool.shutdown p1;
  Qp_par.Pool.shutdown p3;
  Alcotest.(check string) "records byte-identical across jobs" a b

let test_runner_rejects () =
  check_invalid "unknown topology"
    (Runner.run { small_scenario with Scenario.topology = "donut" });
  check_invalid "unknown system"
    (Runner.run { small_scenario with Scenario.system = "rw-nope:3" });
  check_invalid "bad offered load"
    (Runner.run { small_scenario with Scenario.offered_loads = [| 0. |] });
  check_invalid "regions skew off region tables"
    (Runner.run
       { small_scenario with
         Scenario.topology = "complete";
         skew = Clients.Region_weights [| 1.; 1.; 1. |] })

let test_sim_makespan () =
  let p = ok_exn (Spec.build { Spec.default with Spec.topology = "complete"; nodes = 9 }) in
  let outcome =
    match
      (Qp_place.Solver.find_exn "greedy").Qp_place.Solver.solve
        Qp_place.Solver.default_params p
    with
    | Ok o -> o
    | Error e -> Alcotest.fail (Qp_error.to_string e)
  in
  let report =
    Qp_sim.Access_sim.run
      (Qp_sim.Access_sim.default_config ~problem:p
         ~placement:outcome.Qp_place.Outcome.placement)
  in
  Alcotest.(check bool) "makespan positive" true
    (report.Qp_sim.Access_sim.makespan > 0.);
  (* The last completion cannot precede the slowest single access. *)
  Alcotest.(check bool) "makespan >= max delay" true
    (report.Qp_sim.Access_sim.makespan
    >= report.Qp_sim.Access_sim.delay_summary.Stats.max)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rw_cross_intersection; prop_rw_mixed_is_distribution;
      prop_zipf_deterministic_sum1; prop_cdf_monotone;
    ]

let suites =
  [
    ( "scenario.region",
      [
        Alcotest.test_case "tables" `Quick test_region_tables;
        Alcotest.test_case "residency" `Quick test_region_residency;
        Alcotest.test_case "spec topology" `Quick test_region_topology_in_spec;
      ] );
    ( "scenario.rw",
      [
        Alcotest.test_case "constructions" `Quick test_rw_constructions;
        Alcotest.test_case "validation" `Quick test_rw_make_validates;
        Alcotest.test_case "combined indices" `Quick test_rw_combined_indices;
        Alcotest.test_case "reduction byte-identity" `Quick
          test_rw_reduction_byte_identity;
      ] );
    ( "scenario.clients",
      [ Alcotest.test_case "region weights" `Quick test_region_weight_rates ] );
    ( "scenario.stats",
      [ Alcotest.test_case "tiny-sample guards" `Quick test_stats_guards ] );
    ( "scenario.spec",
      [ Alcotest.test_case "parsing" `Quick test_scenario_parsing ] );
    ( "scenario.runner",
      [
        Alcotest.test_case "record shape" `Quick test_runner_record_shape;
        Alcotest.test_case "jobs-deterministic" `Quick
          test_runner_jobs_deterministic;
        Alcotest.test_case "rejects" `Quick test_runner_rejects;
        Alcotest.test_case "sim makespan" `Quick test_sim_makespan;
      ] );
    ("scenario.properties", qcheck_tests);
  ]
