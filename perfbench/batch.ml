(* The batch workloads: one-shot `ctxmatch map` pipelines, run back to
   back in one process, plus 1% update deltas on the same target.

   Every iteration is checked: its fingerprint must equal the reference
   taken from Context_match.run before timing starts, its F-measure
   must meet the workload's floor, and it must quarantine nothing.
   Every update must take the patch path and leave the row count the
   delta implies. *)

open Relational

type spec = {
  algorithm : [ `Naive | `Src_class | `Tgt_class | `Cluster ];
  config : Ctxmatch.Config.t;
  source : Database.t;
  target : Database.t;
  truth : Evalharness.Ground_truth.t;
}

let jobs = 2
let floor = 0.75  (* F-measure below this is a wrong result *)
let limit_ms = 400.0  (* an iteration slower than this misses the limit *)
let delta_table = "Book"  (* the target table the update deltas change *)

(* Retail (§5 Inventory) against the Ryan_Eyers target. *)
let retail ~seed ~rows ~gamma ~algorithm =
  let params = { Workload.Retail.rows; target_rows = rows / 2; gamma; seed } in
  {
    algorithm;
    config = { (Ctxmatch.Config.early Ctxmatch.Config.default) with Ctxmatch.Config.jobs; seed };
    source = Workload.Retail.source params;
    target = Workload.Retail.target params Workload.Retail.Ryan_eyers;
    truth = Evalharness.Ground_truth.retail params Workload.Retail.Ryan_eyers;
  }

let spec ~workload ~seed =
  match workload with
  | "retail-oneshot" -> retail ~seed ~rows:800 ~gamma:4 ~algorithm:`Src_class
  | "retail-views" -> retail ~seed ~rows:320 ~gamma:8 ~algorithm:`Naive
  | other -> invalid_arg ("unknown batch workload " ^ other)

let ms_since t0 = Int64.to_float (Int64.sub (Robust.Deadline.now_ns ()) t0) /. 1e6

(* One instance of a workload as the program sees it (CSV text only),
   with the reference fingerprint taken from Context_match.run before
   timing starts. *)
type input = {
  spec : spec;
  source : Pipeline.tables;
  target : Pipeline.tables;
  reference : string;
  fmeasure : float;
}

let input ~workload ~seed =
  let spec = spec ~workload ~seed in
  let source = Pipeline.csv_of spec.source and target = Pipeline.csv_of spec.target in
  let src = Pipeline.parse "source" source and tgt = Pipeline.parse "target" target in
  let infer = Ctxmatch.Context_match.infer_of spec.algorithm ~target:tgt in
  let r = Ctxmatch.Context_match.run ~config:spec.config ~infer ~source:src ~target:tgt () in
  let fmeasure = Evalharness.Ground_truth.fmeasure spec.truth r.Ctxmatch.Context_match.matches in
  if fmeasure < floor then
    failwith (Printf.sprintf "reference F-measure %.3f is below the floor %.3f" fmeasure floor);
  { spec; source; target; reference = Pipeline.result_fingerprint r; fmeasure }

(* Iterations rotate over this many instances generated from the seed.
   Instances of one size differ in cost: over 48 Retail instances one
   iteration ranged from 114 to 211 ms, the mapping stage alone from 9
   to 43 ms.  With 8 instances a run's median moved with the handful a
   seed happened to draw; 24 average that out. *)
let instances = 24

(* Updates rotate over the maintained targets of the first this many
   instances: a maintained target holds a prepared kernel, several MB
   each. *)
let update_targets = 8

(* A wrong iteration: different fingerprint, quality below the floor,
   or quarantined work. *)
let check input (o : Pipeline.outcome) =
  o.Pipeline.fp = input.reference
  && o.Pipeline.issues = 0
  && Evalharness.Ground_truth.fmeasure input.spec.truth o.Pipeline.matches >= floor

(* Iterate [f] until [seconds] have passed and at least [min_samples]
   iterations ran (but never past [cap_seconds]). *)
let loop ~seconds ~min_samples ~cap_seconds f =
  let t0 = Robust.Deadline.now_ns () in
  let n = ref 0 in
  while
    let elapsed = ms_since t0 /. 1e3 in
    elapsed < cap_seconds && (elapsed < seconds || !n < min_samples)
  do
    f !n;
    incr n
  done

let min_samples = Pct.samples_needed 0.9

type timed = { run_ms : float; match_ms : float; ok : bool }

let untraced_iteration ({ spec; source; target; _ } as input) =
  let t0 = Robust.Deadline.now_ns () in
  let src = Pipeline.parse "source" source and tgt = Pipeline.parse "target" target in
  let infer = Ctxmatch.Context_match.infer_of spec.algorithm ~target:tgt in
  let r = Ctxmatch.Context_match.run ~config:spec.config ~infer ~source:src ~target:tgt () in
  let match_ms = ms_since t0 in
  let plan =
    Mapping.Mapping_gen.plan ~source:src ~target:tgt ~matches:r.Ctxmatch.Context_match.matches ()
  in
  let mapped, map_issues = Mapping.Mapping_gen.execute_all_report plan in
  let run_ms = ms_since t0 in
  let o =
    {
      Pipeline.fp = Pipeline.result_fingerprint r;
      matches = r.Ctxmatch.Context_match.matches;
      issues = List.length r.Ctxmatch.Context_match.issues + List.length map_issues;
      rows_out = Pipeline.rows_of mapped;
    }
  in
  { run_ms; match_ms; ok = check input o }

(* The target under Delta.Maintain, the library path behind serve's
   update-target, with the two deltas of Pipeline.flip_deltas applied
   in turn. *)
type updates = {
  maintain : Delta.Maintain.t;
  append : Delta.t;
  delete : Delta.t;
  base_rows : int;
  mutable applied : int;
}

let maintained { spec; target; _ } =
  let tgt = Pipeline.parse "target" target in
  let kernel = spec.config.Ctxmatch.Config.kernel in
  let prepared = Matching.Standard_match.prepare_target ~kernel ~target:tgt () in
  let _, append, delete = Pipeline.flip_deltas tgt ~table:delta_table in
  {
    maintain = Delta.Maintain.create ~kernel ~target:tgt ~prepared ();
    append;
    delete;
    base_rows = Table.row_count (Database.table tgt delta_table);
    applied = 0;
  }

(* One update: its latency and whether it patched to the expected row
   count. *)
let update u =
  let appending = u.applied mod 2 = 0 in
  let t0 = Robust.Deadline.now_ns () in
  let outcome = Delta.Maintain.update u.maintain (if appending then u.append else u.delete) in
  let ms = ms_since t0 in
  u.applied <- u.applied + 1;
  let rows = Table.row_count (Database.table (Delta.Maintain.target u.maintain) delta_table) in
  let want = if appending then u.base_rows + Array.length (Delta.appends u.append) else u.base_rows in
  (ms, outcome = Ok Delta.Maintain.Patched && rows = want)

(* Updates run between pipeline iterations, so they sample the same
   machine; at a few milliseconds each they take under a tenth of a
   run. *)
let updates_per_iteration = 4

let setup_rounds = 9

(* Pool start, one untimed warm-up iteration and a maintained target
   with one warm-up delta pair, [setup_rounds] times over, each round on
   the next instance; the median is set-up time.  Shrinking the
   process-wide pool to one job shuts its worker domains down, so each
   round starts them afresh. *)
let set_up inputs =
  Pct.median
    (Array.init setup_rounds (fun r ->
         let input = inputs.(r mod Array.length inputs) in
         ignore (Runtime.Pool.get ~jobs:1);
         let t0 = Robust.Deadline.now_ns () in
         ignore (Runtime.Pool.get ~jobs);
         let warm = untraced_iteration input in
         let u = maintained input in
         let warm_updates = [ update u; update u ] in
         let dt = ms_since t0 /. 1e3 in
         if not (warm.ok && List.for_all snd warm_updates) then
           failwith "warm-up produced a wrong result";
         dt))

let run ~workload ~seed ~seconds ~trace ~spans_path =
  if !Obs.Recorder.enabled then failwith "observability recorder enabled during a timed run";
  let inputs = Array.init instances (fun i -> input ~workload ~seed:((seed * instances) + i)) in
  let input i = inputs.(i mod instances) in
  let fmeasure = Pct.mean (Array.map (fun i -> i.fmeasure) inputs) in
  let setup_s = set_up inputs in
  let targets = Array.init update_targets (fun i -> maintained inputs.(i)) in
  let timed = ref [] and updates = ref [] in
  let samples f = Array.of_list (List.map f !timed) in
  let update_after i =
    for _ = 1 to updates_per_iteration do
      updates := update targets.(i mod update_targets) :: !updates
    done
  in
  let update_ms () = Array.of_list (List.map fst !updates) in
  let updates_failed () = List.length (List.filter (fun (_, ok) -> not ok) !updates) in
  let failed () = List.length (List.filter (fun t -> not t.ok) !timed) + updates_failed () in
  let attempted () = List.length !timed + List.length !updates in
  if not trace then begin
    loop ~seconds ~min_samples ~cap_seconds:(Float.max 120.0 (4.0 *. seconds)) (fun i ->
        timed := untraced_iteration (input i) :: !timed;
        update_after i);
    let run_ms = samples (fun t -> t.run_ms) and match_ms = samples (fun t -> t.match_ms) in
    let within =
      List.length (List.filter (fun t -> t.ok && t.run_ms <= limit_ms) !timed)
    in
    {
      Emit.correct = failed () = 0;
      attempted = attempted ();
      failed = failed ();
      metrics =
        [
          ("run_ms.p50", Pct.median run_ms);
          ("run_ms.p90", Pct.percentile run_ms 0.9);
          ("match_ms.p50", Pct.median match_ms);
          ("match_ms.p90", Pct.percentile match_ms 0.9);
          ("update_ms.p50", Pct.median (update_ms ()));
          ("within_limit_frac", float_of_int within /. float_of_int (List.length !timed));
          ("fmeasure", fmeasure);
          ("setup_s", setup_s);
          ("peak_heap_mb", Pipeline.mb_of_words (float_of_int (Gc.quick_stat ()).Gc.top_heap_words));
        ];
    }
  end
  else begin
    (* untraced iterations (the overhead baseline) alternate with traced
       ones, so both see the same machine *)
    let traced = ref [] in
    let gc0 = Gc.quick_stat () in
    loop ~seconds ~min_samples:10 ~cap_seconds:(Float.max 60.0 (2.0 *. seconds)) (fun i ->
        let input = input i in
        timed := untraced_iteration input :: !timed;
        Spans.iteration := i;
        let o, counts =
          Pipeline.run_traced ~target:(`Csv input.target) ~map:true ~config:input.spec.config
            ~algorithm:input.spec.algorithm ~source:input.source ()
        in
        traced := (i, o, counts) :: !traced;
        update_after i);
    let gc1 = Gc.quick_stat () in
    Spans.write spans_path;
    let untraced_p50 = Pct.median (samples (fun t -> t.run_ms)) in
    let traced = !traced in
    let n = List.length traced in
    (* the trace must reproduce Context_match.run bit for bit *)
    let failed_traced =
      List.length (List.filter (fun (i, o, _) -> o.Pipeline.fp <> (input i).reference) traced)
    in
    let traced_p50 =
      Pct.median (Array.of_list (List.map (fun (i, _, _) -> Spans.root_ms ~iteration:i) traced))
    in
    let patched = List.length !updates - updates_failed () in
    {
      Emit.correct = failed () = 0 && failed_traced = 0;
      attempted = attempted () + n;
      failed = failed () + failed_traced;
      metrics =
        Pipeline.layer_metrics traced
        @ [ ("standard_match.prepare_ms", Pipeline.layer_ms traced "standard_match.prepare") ]
        @ Pipeline.gc_metrics ~ops:(2 * n) gc0 gc1
        @ [
            ("trace.overhead_frac", (traced_p50 /. untraced_p50) -. 1.0);
            ("maintain.update_ms", Pct.median (update_ms ()));
            ("maintain.patched_ratio", float_of_int patched /. float_of_int (List.length !updates));
          ]
        @ Emit.not_run
            [
              "store.open_ms"; "store.shard_loads"; "store.hit_ratio"; "store.flush_ms";
              "store.disk_bytes"; "protocol.decode_ms"; "serve.exec_ms"; "serve.wait_ms";
              "server.queue_depth_max"; "server.rejected"; "loadgen.late_ms.p90";
            ];
    }
  end
