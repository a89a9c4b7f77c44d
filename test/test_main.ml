(* Aggregates every suite into one alcotest binary; each [test_<lib>.ml]
   exports a [suites : unit Alcotest.test list]. *)
let () =
  Alcotest.run "quorum-placement"
    (List.concat [ Test_util.suites; Test_obs.suites; Test_graph.suites; Test_lp.suites; Test_quorum.suites; Test_assign.suites; Test_sched.suites; Test_place.suites; Test_place_algo.suites; Test_sim.suites; Test_availability.suites; Test_faults.suites; Test_design.suites; Test_extensions.suites; Test_serialize.suites; Test_solver.suites; Test_instance.suites; Test_partial_deploy.suites; Test_byzantine.suites; Test_sidney.suites; Test_repair.suites; Test_runtime.suites; Test_par.suites; Test_serve.suites; Test_migrate.suites; Test_scale.suites; Test_scenario.suites ])
