let () =
  Alcotest.run "ocr"
    [
      ("obs", Test_obs.suite);
      ("vec", Test_vec.suite);
      ("digraph", Test_digraph.suite);
      ("traversal", Test_traversal.suite);
      ("scc", Test_scc.suite);
      ("bellman-ford", Test_bellman_ford.suite);
      ("cycles+oracle", Test_cycles.suite);
      ("expand", Test_expand.suite);
      ("io", Test_io.suite);
      ("heaps", Test_heaps.suite);
      ("ratio", Test_ratio.suite);
      ("critical", Test_critical.suite);
      ("executor", Test_executor.suite);
      ("fanout", Test_fanout.suite);
      ("karp-core", Test_karp_core.suite);
      ("algorithms", Test_algorithms.suite);
      ("solver", Test_solver.suite);
      ("howard-kernel", Test_howard_kernel.suite);
      ("verify", Test_verify.suite);
      ("generators", Test_gen.suite);
      ("exact", Test_exact.suite);
      ("engine", Test_engine.suite);
      ("file-table", Test_file_table.suite);
      ("dyn", Test_dyn.suite);
      ("cluster", Test_cluster.suite);
      ("applications", Test_apps.suite);
    ]
