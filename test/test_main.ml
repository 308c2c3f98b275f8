(* Aggregated test runner: one Alcotest suite per module. *)

let () =
  Alcotest.run "ctxmatch"
    [
      ("stats.rng", Test_rng.suite);
      ("stats.distribution", Test_distribution.suite);
      ("stats.descriptive", Test_descriptive.suite);
      ("stats.confusion", Test_confusion.suite);
      ("stats.fmeasure", Test_fmeasure.suite);
      ("stats.sampling", Test_sampling.suite);
      ("relational.value", Test_value.suite);
      ("relational.table", Test_table.suite);
      ("relational.condition", Test_condition.suite);
      ("relational.view", Test_view.suite);
      ("relational.categorical", Test_categorical.suite);
      ("relational.csv", Test_csv.suite);
      ("relational.database", Test_database.suite);
      ("textsim.tokenize", Test_tokenize.suite);
      ("textsim.simmetrics", Test_simmetrics.suite);
      ("textsim.profile", Test_profile.suite);
      ("textsim.coded-oracle", Test_coded_oracle.suite);
      ("learn", Test_learn.suite);
      ("matching", Test_matching.suite);
      ("ctxmatch.core", Test_ctxmatch.suite);
      ("ctxmatch.infer-oracle", Test_infer_oracle.suite);
      ("ctxmatch.select", Test_select_matches.suite);
      ("runtime", Test_runtime.suite);
      ("runtime.parallel-equiv", Test_parallel_equiv.suite);
      ("ctxmatch.conjunctive", Test_conjunctive.suite);
      ("mapping", Test_mapping.suite);
      ("mapping.gen", Test_mapping_gen.suite);
      ("mapping.mining-oracle", Test_mining_oracle.suite);
      ("workload", Test_workload.suite);
      ("eval", Test_eval.suite);
      ("integration", Test_integration.suite);
      ("extensions", Test_extensions.suite);
      ("sql-and-parser", Test_sql_and_parser.suite);
      ("soundness", Test_soundness.suite);
      ("weight-fit", Test_weight_fit.suite);
      ("xmlbridge", Test_xmlbridge.suite);
      ("cli", Test_cli.suite);
    ]
