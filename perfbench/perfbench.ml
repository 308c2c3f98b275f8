(* Entry point of the repository benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1
                   --cli PATH --workdir DIR --commit SHA
     perfbench.exe --selftest
     perfbench.exe --list-metrics

   Prints a stamp line ("# stamp {...}": workload, seed, nproc, jobs,
   OCaml version, commit) and, as its last line, the result object:
   with --trace 0 every end-to-end metric, with --trace 1 every
   per-layer metric (see Emit).  The self-tests run before every
   measurement.  Exits 1 when any output was wrong, 2 on bad
   arguments. *)

let selftest () =
  let check what ok = if not ok then failwith ("selftest: " ^ what) in
  let hundred = Array.init 100 (fun i -> float_of_int (100 - i)) in
  check "median of 1..100" (Pct.median hundred = 50.0);
  check "p90 of 1..100" (Pct.percentile hundred 0.9 = 90.0);
  check "p100 is the maximum" (Pct.percentile hundred 1.0 = 100.0);
  check "one sample" (Pct.percentile [| 7.0 |] 0.9 = 7.0);
  check "p90 supported by 100 samples" (Pct.supported ~n:100 0.9);
  check "p90 not supported by 99 samples" (not (Pct.supported ~n:99 0.9));
  check "p90 needs 100 samples" (Pct.samples_needed 0.9 = 100);
  check "p50 needs 20 samples" (Pct.samples_needed 0.5 = 20);
  check "p99 needs 1000 samples" (Pct.samples_needed 0.99 = 1000);
  List.iter
    (fun name -> check ("name " ^ name) (Emit.valid_name name))
    (Emit.workloads @ List.map fst Emit.end_to_end @ List.map fst Emit.per_layer);
  check "bad name rejected" (not (Emit.valid_name "run ms"));
  let names = List.map fst (Emit.end_to_end @ Emit.per_layer) in
  check "names unique" (List.length (List.sort_uniq compare names) = List.length names);
  let sample registry =
    {
      Emit.correct = true;
      attempted = 3;
      failed = 0;
      metrics = List.mapi (fun i (name, _) -> (name, 1.0 /. float_of_int (i + 3))) registry;
    }
  in
  List.iter
    (fun registry ->
      let json = Emit.to_json registry (sample registry) in
      check "result round-trips" (Serve.Json.parse (Serve.Json.to_string json) = json))
    [ Emit.end_to_end; Emit.per_layer ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let cli = ref "_build/default/bin/ctxmatch_cli.exe" and workdir = ref ".perfbench_run" in
  let commit = ref "unknown" and selftest_only = ref false and list_only = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Emit.workloads);
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--cli", Arg.Set_string cli, "PATH the ctxmatch CLI executable (serve-mixed)");
      ("--workdir", Arg.Set_string workdir, "DIR working directory for sockets, stores, spans");
      ("--commit", Arg.Set_string commit, "SHA commit recorded in the stamp");
      ("--selftest", Arg.Set selftest_only, " run the benchmark's own checks and exit");
      ("--list-metrics", Arg.Set list_only, " print the metric and workload registry as JSON");
    ]
  in
  let usage = "perfbench.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  selftest ();
  if !selftest_only then (print_endline "selftest ok"; exit 0);
  if !list_only then begin
    let pairs l =
      Serve.Json.List
        (List.map (fun (n, u) -> Serve.Json.List [ Serve.Json.String n; Serve.Json.String u ]) l)
    in
    print_endline
      (Serve.Json.to_string
         (Serve.Json.Obj
            [
              ("end_to_end", pairs Emit.end_to_end);
              ("per_layer", pairs Emit.per_layer);
              ("workloads", Serve.Json.List (List.map (fun w -> Serve.Json.String w) Emit.workloads));
            ]));
    exit 0
  end;
  if not (List.mem !workload Emit.workloads) || not (!trace = 0 || !trace = 1) then begin
    Arg.usage spec usage;
    exit 2
  end;
  let trace = !trace = 1 in
  if not (Sys.file_exists !workdir) then Sys.mkdir !workdir 0o755;
  let stamp =
    Serve.Json.Obj
      [
        ("workload", Serve.Json.String !workload);
        ("seed", Serve.Json.Int !seed);
        ("seconds", Serve.Json.Float !seconds);
        ("trace", Serve.Json.Bool trace);
        ("nproc", Serve.Json.Int (Domain.recommended_domain_count ()));
        ("jobs", Serve.Json.Int Batch.jobs);
        ("ocaml", Serve.Json.String Sys.ocaml_version);
        ("commit", Serve.Json.String !commit);
      ]
  in
  print_endline ("# stamp " ^ Serve.Json.to_string stamp);
  let spans_path =
    Filename.concat !workdir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed)
  in
  let result =
    match !workload with
    | "serve-mixed" ->
      Served.run ~seed:!seed ~seconds:!seconds ~trace ~cli:!cli ~workdir:!workdir ~spans_path
    | w -> Batch.run ~workload:w ~seed:!seed ~seconds:!seconds ~trace ~spans_path
  in
  List.iter
    (fun (name, v) ->
      if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" name))
    result.Emit.metrics;
  Emit.print (if trace then Emit.per_layer else Emit.end_to_end) result;
  if not result.Emit.correct then exit 1
