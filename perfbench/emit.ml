(* The metric registry and the result line.

   Every metric the benchmark can print is declared here with its unit;
   an untraced run prints exactly [end_to_end], a traced run exactly
   [per_layer].  run.py checks both lists against BENCHMARK.json on
   every run, so the two cannot drift apart silently. *)

let end_to_end =
  [
    ("run_ms.p50", "ms");
    ("run_ms.p90", "ms");
    ("match_ms.p50", "ms");
    ("match_ms.p90", "ms");
    ("update_ms.p50", "ms");
    ("within_limit_frac", "fraction");
    ("fmeasure", "fraction");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

let per_layer =
  [
    ("csv_io.parse_ms", "ms");
    ("standard_match.prepare_ms", "ms");
    ("standard_match.build_ms", "ms");
    ("standard_match.pairs_scored", "count");
    ("standard_match.accept_ratio", "fraction");
    ("profile_cache.hit_ratio", "fraction");
    ("profile_cache.builds", "count");
    ("infer.ms", "ms");
    ("infer.views", "count");
    ("standard_match.view_ms", "ms");
    ("standard_match.view_useful_ratio", "fraction");
    ("select_matches.ms", "ms");
    ("mapping_gen.plan_ms", "ms");
    ("mapping_gen.execute_ms", "ms");
    ("mapping_gen.rows_out", "count");
    ("store.open_ms", "ms");
    ("store.shard_loads", "count");
    ("store.hit_ratio", "fraction");
    ("store.flush_ms", "ms");
    ("store.disk_bytes", "bytes");
    ("maintain.update_ms", "ms");
    ("maintain.patched_ratio", "fraction");
    ("protocol.decode_ms", "ms");
    ("serve.exec_ms", "ms");
    ("serve.wait_ms", "ms");
    ("server.queue_depth_max", "count");
    ("server.rejected", "count");
    ("gc.minor_mb_per_op", "MB");
    ("gc.major_per_op", "count");
    ("loadgen.late_ms.p90", "ms");
    ("trace.overhead_frac", "fraction");
  ]

(* Layers a workload does not run read 0. *)
let not_run names = List.map (fun name -> (name, 0.0)) names

(* No numeric-only workload: Grades under ClioQualTable (selection join
   rules and mapping joins) read 126-167 ms over five 38 s runs of the
   same code on a shared 2-vCPU VM, though its instances cost the same,
   too wide for any regression bound.  Retail's matching kernel moved
   under 5% there. *)
let workloads = [ "retail-oneshot"; "retail-views"; "serve-mixed" ]

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

(* The result as JSON, metrics in registry order.  Raises if a metric
   of [registry] is missing or an unknown one is present. *)
let to_json registry r =
  let known = List.map fst registry in
  List.iter
    (fun (name, _) ->
      if not (List.mem name known) then invalid_arg ("Emit.to_json: unregistered metric " ^ name))
    r.metrics;
  if List.length r.metrics <> List.length registry then
    invalid_arg "Emit.to_json: a metric is measured twice";
  Serve.Json.Obj
    [
      ("correct", Serve.Json.Bool r.correct);
      ("attempted", Serve.Json.Int r.attempted);
      ("failed", Serve.Json.Int r.failed);
      ( "metrics",
        Serve.Json.Obj
          (List.map
             (fun (name, unit) ->
               match List.assoc_opt name r.metrics with
               | Some v ->
                 ( name,
                   Serve.Json.Obj [ ("value", Serve.Json.Float v); ("unit", Serve.Json.String unit) ]
                 )
               | None -> invalid_arg ("Emit.to_json: metric not measured: " ^ name))
             registry) );
    ]

(* The last line of stdout.  It is parsed back before printing: a line
   that does not round-trip is a bug in the benchmark, not a result. *)
let print registry r =
  let json = to_json registry r in
  let line = Serve.Json.to_string json in
  if Serve.Json.parse line <> json then failwith "result line does not round-trip";
  print_endline line
