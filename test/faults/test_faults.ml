(* Differential fault-injection suite (DESIGN.md, "Failure semantics").

   Every test arms deterministic faults (Robust.Fault) somewhere in the
   pipeline and proves the two containment invariants:

   - an injected fault NEVER crashes a run: it quarantines one unit of
     work (a source attribute, a candidate view, a CSV row, a file) and
     surfaces as an issue in the partial result's report;
   - because fault decisions hash (seed, site, key) and never depend on
     scheduling, the surviving partial result AND the issue list are
     bit-identical at every jobs value — the same differential oracle
     test_parallel_equiv applies to clean runs;

   plus the converse: arming sites at rate 0.0 is byte-identical to not
   arming anything at all. *)

let fp_match (m : Matching.Schema_match.t) =
  Printf.sprintf "%s|%s|%s|%s.%s|%s|%h" m.src_owner m.src_base m.src_attr m.tgt_table
    m.tgt_attr
    (Relational.Condition.to_string m.condition)
    m.confidence

let fp_issue = Robust.Error.to_string

let fingerprint (r : Ctxmatch.Context_match.result) =
  String.concat "\n"
    (("matches:" :: List.map fp_match r.Ctxmatch.Context_match.matches)
    @ ("standard:" :: List.map fp_match r.Ctxmatch.Context_match.standard)
    @ (Printf.sprintf "views:%d" r.Ctxmatch.Context_match.candidate_view_count
      :: "issues:" :: List.map fp_issue r.Ctxmatch.Context_match.issues))

(* 1, a fixed parallel width, and whatever this host recommends *)
let all_jobs = List.sort_uniq compare [ 1; 2; Domain.recommended_domain_count () ]

let retail_run ?(faults = []) ?timeout_ms ~jobs () =
  let params = { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let config = { Ctxmatch.Config.default with jobs; faults; timeout_ms } in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  Ctxmatch.Context_match.run ~config ~infer ~source ~target ()

(* Shared skeleton: armed site -> partial result + non-empty identical
   issues at every jobs value, and never an escaped exception. *)
let check_site_differential site =
  let faults = [ { Robust.Fault.site; rate = 0.35; seed = 1 } ] in
  let name = Robust.Fault.site_name site in
  let oracle = retail_run ~faults ~jobs:1 () in
  Alcotest.(check bool)
    (name ^ ": faults actually fired")
    true
    (oracle.Ctxmatch.Context_match.issues <> []);
  let oracle_fp = fingerprint oracle in
  List.iter
    (fun jobs ->
      let r = retail_run ~faults ~jobs () in
      Alcotest.(check string)
        (Printf.sprintf "%s: jobs=%d identical to sequential (result + issues)" name jobs)
        oracle_fp (fingerprint r))
    all_jobs

let test_matcher_score_faults () = check_site_differential Robust.Fault.Matcher_score
let test_pool_task_faults () = check_site_differential Robust.Fault.Pool_task
let test_memo_faults () = check_site_differential Robust.Fault.Memo_lookup

(* SrcClassInfer reads each h column's coded column through the model's
   memo.  A fault at that lookup must not cost inference the table: h is
   coded by inference itself, and the views are those of an unfaulted
   run. *)
let test_memo_fault_spares_inference () =
  let params = { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let inventory = Relational.Database.table source Workload.Retail.source_table_name in
  let config = Ctxmatch.Config.default in
  let model = Matching.Standard_match.build ~source ~target () in
  let matches =
    Matching.Standard_match.matches_from model ~src_table:(Relational.Table.name inventory)
      ~tau:config.Ctxmatch.Config.tau
  in
  let infer () =
    Ctxmatch.Src_class_infer.infer.Ctxmatch.Infer.infer
      ~coded:(Matching.Standard_match.coded model inventory)
      (Stats.Rng.create 1) config ~source_table:inventory ~matches
  in
  let fp families =
    List.map
      (fun (f : Relational.View.family) ->
        Printf.sprintf "%s %h [%s]" f.attribute f.quality
          (String.concat "; "
             (List.map
                (fun v -> Relational.Condition.to_string (Relational.View.condition v))
                f.views)))
      families
  in
  let clean = infer () in
  Alcotest.(check bool) "views were inferred" true (clean <> []);
  let faulted =
    Robust.Fault.with_armed
      [ { Robust.Fault.site = Robust.Fault.Memo_lookup; rate = 1.0; seed = 1 } ]
      infer
  in
  Alcotest.(check (list string)) "every memo lookup faulted: same views" (fp clean) (fp faulted)

(* Arming at rate 0.0 must be a perfect no-op: byte-identical result,
   empty issue list. *)
let test_rate_zero_is_clean () =
  let clean = retail_run ~jobs:2 () in
  Alcotest.(check bool) "clean run has no issues" true
    (clean.Ctxmatch.Context_match.issues = []);
  let armed_zero =
    retail_run
      ~faults:
        (List.map
           (fun site -> { Robust.Fault.site; rate = 0.0; seed = 1 })
           Robust.Fault.all_sites)
      ~jobs:2 ()
  in
  Alcotest.(check string) "rate 0.0 everywhere = unarmed" (fingerprint clean)
    (fingerprint armed_zero)

(* timeout_ms = Some 0: the deadline is expired before the first scoring
   unit starts, so EVERY unit is quarantined — the run completes with a
   (maximally) partial result and a full report, never an exception. *)
let test_timeout_zero_degrades () =
  List.iter
    (fun jobs ->
      let r = retail_run ~timeout_ms:0 ~jobs () in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d: expiry reported" jobs)
        true
        (r.Ctxmatch.Context_match.issues <> []);
      Alcotest.(check (list string))
        (Printf.sprintf "jobs=%d: no units survive an expired deadline" jobs)
        []
        (List.map fp_match r.Ctxmatch.Context_match.matches))
    all_jobs

(* --- CSV ingestion sites ---------------------------------------------- *)

let retail_csv () =
  let params = { Workload.Retail.default_params with rows = 80; seed = 42 } in
  let table =
    Relational.Database.table (Workload.Retail.source params)
      Workload.Retail.source_table_name
  in
  (Relational.Csv_io.table_to_csv table, Relational.Table.row_count table)

let test_csv_parse_faults () =
  let csv, total = retail_csv () in
  let armings = [ { Robust.Fault.site = Robust.Fault.Csv_parse; rate = 0.3; seed = 7 } ] in
  let lenient () =
    Robust.Fault.with_armed armings @@ fun () ->
    Relational.Csv_io.table_of_csv_report ~mode:Relational.Csv_io.Lenient ~name:"inv" csv
  in
  let table, issues = lenient () in
  let kept = Relational.Table.row_count table in
  Alcotest.(check bool) "some rows quarantined" true (issues <> []);
  Alcotest.(check int) "every row accounted for" total (kept + List.length issues);
  List.iter
    (fun (i : Robust.Error.t) ->
      Alcotest.(check bool) "issue carries its line number" true (i.Robust.Error.line <> None))
    issues;
  (* seed-determinism: the same faults fire on a second pass *)
  let table', issues' = lenient () in
  Alcotest.(check string) "lenient re-ingestion is deterministic"
    (Relational.Csv_io.table_to_csv table)
    (Relational.Csv_io.table_to_csv table');
  Alcotest.(check (list string)) "same issues" (List.map fp_issue issues)
    (List.map fp_issue issues');
  (* strict mode propagates the injected fault instead of quarantining *)
  Alcotest.(check bool) "strict re-raises" true
    (try
       Robust.Fault.with_armed armings (fun () ->
           ignore (Relational.Csv_io.table_of_csv ~name:"inv" csv));
       false
     with Robust.Fault.Injected _ -> true)

let test_file_read_faults () =
  let csv, _ = retail_csv () in
  let path = Filename.temp_file "ctxmatch_fault" ".csv" in
  let oc = open_out path in
  output_string oc csv;
  close_out oc;
  let armings = [ { Robust.Fault.site = Robust.Fault.File_read; rate = 1.0; seed = 0 } ] in
  (* rate 1.0: every attempt fails, the retries are exhausted *)
  Alcotest.(check bool) "strict read raises after retries" true
    (try
       Robust.Fault.with_armed armings (fun () ->
           ignore (Relational.Csv_io.table_of_file ~name:"inv" path));
       false
     with Robust.Fault.Injected _ -> true);
  let table, issues =
    Robust.Fault.with_armed armings (fun () ->
        Relational.Csv_io.table_of_file_report ~mode:Relational.Csv_io.Lenient ~name:"inv"
          path)
  in
  Sys.remove path;
  Alcotest.(check int) "lenient: empty table" 0 (Relational.Table.row_count table);
  Alcotest.(check bool) "lenient: one fatal issue" true
    (match issues with
    | [ i ] -> i.Robust.Error.severity = Robust.Error.Fatal
    | _ -> false);
  (* a fault-free read retries its way past nothing and succeeds *)
  let path2 = Filename.temp_file "ctxmatch_fault" ".csv" in
  let oc = open_out path2 in
  output_string oc csv;
  close_out oc;
  let clean = Relational.Csv_io.table_of_file ~name:"inv" path2 in
  Sys.remove path2;
  Alcotest.(check bool) "clean read loads" true (Relational.Table.row_count clean > 0)

(* --- pool-level unit tests -------------------------------------------- *)

let test_pool_results_containment () =
  List.iter
    (fun jobs ->
      let pool = Runtime.Pool.create ~jobs in
      let r =
        Runtime.Pool.parallel_init_results pool 23 (fun i ->
            if i mod 3 = 0 then failwith "boom" else i * i)
      in
      Array.iteri
        (fun i slot ->
          match slot with
          | Ok v ->
            Alcotest.(check bool) "ok slot" true (i mod 3 <> 0 && v = i * i)
          | Error (Failure m) when m = "boom" ->
            Alcotest.(check bool) "error slot" true (i mod 3 = 0)
          | Error e -> Alcotest.failf "unexpected error %s" (Printexc.to_string e))
        r;
      let l =
        Runtime.Pool.map_list_results pool
          (fun s -> if s = "bad" then raise Exit else String.length s)
          [ "a"; "bad"; "ccc" ]
      in
      Alcotest.(check bool) "list slots" true
        (match l with [ Ok 1; Error Exit; Ok 3 ] -> true | _ -> false);
      Runtime.Pool.shutdown pool)
    all_jobs

let test_pool_deadline () =
  let pool = Runtime.Pool.create ~jobs:2 in
  let deadline = Robust.Deadline.after_ms 0 in
  let r = Runtime.Pool.parallel_init_results pool ~deadline 8 (fun i -> i) in
  Array.iter
    (fun slot ->
      Alcotest.(check bool) "expired slot" true
        (match slot with Error (Robust.Deadline.Expired _) -> true | _ -> false))
    r;
  Runtime.Pool.shutdown pool

(* the per-key decision must be a pure function of (seed, site, key) *)
let test_fault_decisions_are_stable () =
  let keys = List.init 100 string_of_int in
  let fired () =
    Robust.Fault.with_armed
      [ { Robust.Fault.site = Robust.Fault.Pool_task; rate = 0.5; seed = 3 } ]
      (fun () ->
        List.filter
          (fun key ->
            match Robust.Fault.check Robust.Fault.Pool_task ~key with
            | () -> false
            | exception Robust.Fault.Injected _ -> true)
          keys)
  in
  let a = fired () in
  Alcotest.(check bool) "rate 0.5 fires some, spares some" true
    (a <> [] && List.length a < List.length keys);
  Alcotest.(check (list string)) "same decisions on re-arm" a (fired ());
  Alcotest.(check bool) "disarmed after with_armed" false
    (Robust.Fault.armed Robust.Fault.Pool_task)

(* --- armed-set concurrency --------------------------------------------- *)

(* The armed set is one Atomic.t mutated through a CAS retry loop:
   domains arming/disarming *different* sites concurrently must never
   lose each other's updates (a plain read-modify-write would). *)
let test_concurrent_arming_loses_nothing () =
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  let sites = Array.of_list Robust.Fault.all_sites in
  let n = Array.length sites in
  let domains =
    Array.mapi
      (fun i site ->
        Domain.spawn (fun () ->
            (* churn: repeatedly arm and disarm my own site... *)
            for round = 1 to 200 do
              Robust.Fault.arm ~rate:0.5 ~seed:round site;
              Robust.Fault.disarm site
            done;
            (* ...and leave it armed with a recognisable seed *)
            Robust.Fault.arm ~rate:1.0 ~seed:(1000 + i) site))
      sites
  in
  Array.iter Domain.join domains;
  Array.iter
    (fun site ->
      Alcotest.(check bool)
        (Robust.Fault.site_name site ^ " survived concurrent churn")
        true (Robust.Fault.armed site))
    sites;
  (* and with_armed restores only its own overlay *)
  Robust.Fault.with_armed
    [ { Robust.Fault.site = sites.(0); rate = 0.1; seed = 9 } ]
    (fun () -> ());
  Alcotest.(check int) "every site still armed after with_armed" n
    (Array.fold_left
       (fun acc site -> if Robust.Fault.armed site then acc + 1 else acc)
       0 sites)

(* --- behaviours & --fault spec parsing ---------------------------------- *)

let test_behaviours () =
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  (* latency: check burns the delay and returns instead of raising *)
  Robust.Fault.arm ~rate:1.0 ~seed:0 ~behaviour:(Robust.Fault.Latency_ms 1)
    Robust.Fault.Memo_lookup;
  Alcotest.(check unit) "latency behaviour never raises" ()
    (Robust.Fault.check Robust.Fault.Memo_lookup ~key:"k");
  (* torn write at a non-write site degrades to a raise *)
  Robust.Fault.arm ~rate:1.0 ~seed:0 ~behaviour:(Robust.Fault.Torn_write 0.5)
    Robust.Fault.Pool_task;
  Alcotest.(check bool) "torn at a non-write site raises" true
    (try
       Robust.Fault.check Robust.Fault.Pool_task ~key:"k";
       false
     with Robust.Fault.Injected _ -> true);
  (* fire exposes the decision without acting on it *)
  Alcotest.(check bool) "fire reports the armed behaviour" true
    (match Robust.Fault.fire Robust.Fault.Pool_task ~key:"k" with
    | Some (Robust.Fault.Torn_write f) -> f = 0.5
    | _ -> false);
  Alcotest.(check bool) "unarmed site never fires" true
    (Robust.Fault.fire Robust.Fault.Csv_parse ~key:"k" = None)

let test_spec_parsing () =
  let ok s = match Robust.Fault.spec_of_string s with Ok v -> v | Error e -> Alcotest.fail e in
  let site, rate, seed, behaviour = ok "store-shard-write:0.25:7:torn=0.5" in
  Alcotest.(check string) "site" "store-shard-write" (Robust.Fault.site_name site);
  Alcotest.(check (float 0.0)) "rate" 0.25 rate;
  Alcotest.(check int) "seed" 7 seed;
  Alcotest.(check string) "behaviour" "torn=0.5" (Robust.Fault.behaviour_name behaviour);
  let _, rate, seed, behaviour = ok "socket-read" in
  Alcotest.(check (float 0.0)) "default rate" 1.0 rate;
  Alcotest.(check int) "default seed" 0 seed;
  Alcotest.(check string) "default behaviour" "raise" (Robust.Fault.behaviour_name behaviour);
  let _, _, _, behaviour = ok "memo-lookup:0.1:3:latency=25" in
  Alcotest.(check string) "latency behaviour" "latency=25"
    (Robust.Fault.behaviour_name behaviour);
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true
        (match Robust.Fault.spec_of_string bad with Error _ -> true | Ok _ -> false))
    [ "no-such-site"; "csv-parse:nope"; "csv-parse:2.0"; "csv-parse:0.5:x"; "csv-parse:0.5:1:sideways"; "csv-parse:0.5:1:torn=2.0"; "" ];
  (* arm_spec arms exactly what it parsed *)
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  (match Robust.Fault.arm_spec "file-read:1.0:4" with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "arm_spec armed the site" true
    (Robust.Fault.armed Robust.Fault.File_read)

(* The new I/O sites obey the same stable-decision contract as the
   pipeline sites: pure function of (seed, site, key), site-distinct. *)
let test_io_site_decisions_stable () =
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  let keys = List.init 200 (fun i -> Printf.sprintf "shard-%04d.dat" i) in
  let fired site =
    Robust.Fault.disarm_all ();
    Robust.Fault.arm ~rate:0.4 ~seed:11 site;
    List.filter
      (fun key ->
        match Robust.Fault.fire site ~key with Some _ -> true | None -> false)
      keys
  in
  let w = fired Robust.Fault.Store_shard_write in
  let r = fired Robust.Fault.Store_shard_read in
  Alcotest.(check bool) "partial firing" true
    (w <> [] && List.length w < List.length keys);
  Alcotest.(check (list string)) "write decisions replay" w
    (fired Robust.Fault.Store_shard_write);
  Alcotest.(check bool) "sites decide independently" true (w <> r)

let () =
  Alcotest.run "ctxmatch-faults"
    [
      ( "faults",
        [
          Alcotest.test_case "pool results containment" `Quick test_pool_results_containment;
          Alcotest.test_case "pool deadline" `Quick test_pool_deadline;
          Alcotest.test_case "fault decisions stable" `Quick test_fault_decisions_are_stable;
          Alcotest.test_case "concurrent arming loses nothing" `Quick
            test_concurrent_arming_loses_nothing;
          Alcotest.test_case "behaviours" `Quick test_behaviours;
          Alcotest.test_case "--fault spec parsing" `Quick test_spec_parsing;
          Alcotest.test_case "I/O site decisions stable" `Quick test_io_site_decisions_stable;
          Alcotest.test_case "csv-parse faults" `Quick test_csv_parse_faults;
          Alcotest.test_case "file-read faults" `Quick test_file_read_faults;
          Alcotest.test_case "rate 0.0 = clean" `Slow test_rate_zero_is_clean;
          Alcotest.test_case "timeout 0 degrades" `Slow test_timeout_zero_degrades;
          Alcotest.test_case "matcher-score differential" `Slow test_matcher_score_faults;
          Alcotest.test_case "pool-task differential" `Slow test_pool_task_faults;
          Alcotest.test_case "memo-lookup differential" `Slow test_memo_faults;
          Alcotest.test_case "memo fault spares inference" `Quick test_memo_fault_spares_inference;
        ] );
    ]
