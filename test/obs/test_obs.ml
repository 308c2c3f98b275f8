(* Tests for lib/obs, pinning the contracts DESIGN.md promises:

   - the disabled recorder is invisible — no events, no counters, and
     matcher output identical to an instrumented run;
   - spans nest across the pool's cross-domain fan-out (chunk spans
     parent to the span open on the submitting domain);
   - counters outside the scheduling-dependent set are identical at
     every --jobs value;
   - the exporters emit well-formed JSON with the documented fields. *)

let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let with_recorder f =
  Obs.Recorder.disable ();
  Obs.Recorder.reset ();
  Obs.Metrics.reset ();
  Obs.Recorder.enable ();
  Fun.protect ~finally:Obs.Recorder.disable f

(* the differential workload: a small retail run, same shape as
   test_parallel_equiv *)
let retail_run ~jobs ~seed =
  let params =
    { Workload.Retail.default_params with rows = 120; target_rows = 60; seed }
  in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let config =
    Ctxmatch.Config.with_jobs (Ctxmatch.Config.with_seed Ctxmatch.Config.default seed) jobs
  in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  Ctxmatch.Context_match.run ~config ~infer ~source ~target ()

(* NaiveInfer under early disjuncts at gamma 8: hundreds of candidate
   views share a handful of partition families, so a per-family
   artefact built lazily by racing views would surface as a
   jobs-dependent lookup count *)
let retail_views_run ~jobs ~seed =
  let params = { Workload.Retail.rows = 320; target_rows = 160; gamma = 8; seed } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let config =
    Ctxmatch.Config.with_jobs
      (Ctxmatch.Config.with_seed (Ctxmatch.Config.early Ctxmatch.Config.default) seed)
      jobs
  in
  let infer = Ctxmatch.Context_match.infer_of `Naive ~target in
  Ctxmatch.Context_match.run ~config ~infer ~source ~target ()

let fingerprint (r : Ctxmatch.Context_match.result) =
  String.concat "\n"
    (List.map
       (fun (m : Matching.Schema_match.t) ->
         Printf.sprintf "%s|%s|%s.%s|%s|%h" m.src_owner m.src_attr m.tgt_table
           m.tgt_attr
           (Relational.Condition.to_string m.condition)
           m.confidence)
       r.matches)

(* Minimal JSON recogniser — enough to reject anything malformed the
   hand-rolled emitter could produce (bad escaping, trailing commas,
   bare inf/nan).  Accepts exactly one value spanning the whole input. *)
module Json_check = struct
  exception Bad of string

  let parse s =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> raise (Bad (Printf.sprintf "expected %C at %d" c !pos))
    in
    let string_lit () =
      expect '"';
      let rec go () =
        match peek () with
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some _ -> advance ()
          | None -> raise (Bad "dangling escape"));
          go ()
        | Some _ ->
          advance ();
          go ()
        | None -> raise (Bad "unterminated string")
      in
      go ()
    in
    let number () =
      let num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      if not (match peek () with Some c -> num_char c | None -> false) then
        raise (Bad "number");
      while match peek () with Some c -> num_char c | None -> false do
        advance ()
      done
    in
    let lit w = String.iter expect w in
    let rec value () =
      skip_ws ();
      match peek () with
      | Some '{' -> obj ()
      | Some '[' -> arr ()
      | Some '"' -> string_lit ()
      | Some 't' -> lit "true"
      | Some 'f' -> lit "false"
      | Some 'n' -> lit "null"
      | Some ('-' | '0' .. '9') -> number ()
      | _ -> raise (Bad (Printf.sprintf "unexpected input at %d" !pos))
    and obj () =
      expect '{';
      skip_ws ();
      match peek () with
      | Some '}' -> advance ()
      | _ ->
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> raise (Bad "object")
        in
        members ()
    and arr () =
      expect '[';
      skip_ws ();
      match peek () with
      | Some ']' -> advance ()
      | _ ->
        let rec elems () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elems ()
          | Some ']' -> advance ()
          | _ -> raise (Bad "array")
        in
        elems ()
    in
    value ();
    skip_ws ();
    if !pos <> n then raise (Bad (Printf.sprintf "trailing input at %d" !pos))

  let is_valid s = match parse s with () -> true | exception Bad _ -> false
end

(* --- the disabled recorder must be invisible --------------------------- *)

let test_disabled_invisible () =
  Obs.Recorder.disable ();
  Obs.Recorder.reset ();
  Obs.Metrics.reset ();
  let baseline = fingerprint (retail_run ~jobs:2 ~seed:7) in
  Alcotest.(check int) "no events recorded" 0 (Obs.Recorder.event_count ());
  let snap = Obs.Metrics.snapshot () in
  Alcotest.(check int) "no counters" 0 (List.length snap.Obs.Metrics.counters);
  Alcotest.(check int) "no histograms" 0 (List.length snap.Obs.Metrics.histograms);
  (* instrumentation must not perturb the matcher: the same run under
     the recorder yields the identical result *)
  let instrumented = with_recorder (fun () -> fingerprint (retail_run ~jobs:2 ~seed:7)) in
  Alcotest.(check string) "enabled run matches disabled run" baseline instrumented;
  Alcotest.(check bool) "events recorded when enabled" true (Obs.Recorder.event_count () > 0)

(* --- spans nest across the pool's cross-domain fan-out ----------------- *)

let test_span_nesting () =
  with_recorder @@ fun () ->
  let pool = Runtime.Pool.create ~jobs:3 in
  Fun.protect ~finally:(fun () -> Runtime.Pool.shutdown pool) @@ fun () ->
  let input = Array.init 32 Fun.id in
  let results =
    Obs.Trace.with_span "batch" (fun () ->
        Runtime.Pool.map_array_results pool (fun x -> x * x) input)
  in
  Array.iteri
    (fun i -> function
      | Ok v -> Alcotest.(check int) "payload" (i * i) v
      | Error _ -> Alcotest.fail "unexpected Error slot")
    results;
  let events = Obs.Recorder.events () in
  let batch =
    match List.find_opt (fun e -> e.Obs.Recorder.path = "batch") events with
    | Some e -> e
    | None -> Alcotest.fail "no batch span recorded"
  in
  let chunks = List.filter (fun e -> e.Obs.Recorder.name = "pool.chunk") events in
  Alcotest.(check bool) "several chunk spans" true (List.length chunks > 1);
  List.iter
    (fun (e : Obs.Recorder.event) ->
      Alcotest.(check string) "chunk path extends batch path" "batch/pool.chunk" e.path;
      Alcotest.(check int) "chunk parents to the batch span" batch.Obs.Recorder.id e.parent)
    chunks;
  let ordinals =
    List.map (fun e -> e.Obs.Recorder.ordinal) chunks |> List.sort compare
  in
  Alcotest.(check (list int))
    "chunk ordinals are dense from 0"
    (List.init (List.length chunks) Fun.id)
    ordinals

(* --- counters do not depend on --jobs ---------------------------------- *)

(* pool.* reflects scheduling (chunk counts, busy time); everything
   else — cache hits, misses and builds included, since each memo key
   is computed once whichever domain asks first — must be identical at
   every jobs value. *)
let scheduling_dependent name = String.starts_with ~prefix:"pool." name

let counters_for run ~jobs =
  with_recorder @@ fun () ->
  ignore (run ~jobs ~seed:11);
  let snap = Obs.Metrics.snapshot () in
  List.filter (fun (name, _) -> not (scheduling_dependent name)) snap.Obs.Metrics.counters

let test_counters_jobs_invariant () =
  let show l = String.concat "\n" (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) l) in
  List.iter
    (fun (what, run, min_views) ->
      let seq = counters_for run ~jobs:1 in
      Alcotest.(check bool) (what ^ ": lookups counted") true
        (List.assoc_opt "cache.profile.lookups" seq <> None);
      Alcotest.(check bool)
        (Printf.sprintf "%s: at least %d candidate views" what min_views)
        true
        (Option.value ~default:0 (List.assoc_opt "match.candidate_views" seq) >= min_views);
      Alcotest.(check string) (what ^ ": counters independent of --jobs") (show seq)
        (show (counters_for run ~jobs:4)))
    [
      ("SrcClassInfer", retail_run, 1);
      ("NaiveInfer early gamma 8", retail_views_run, 200);
    ]

(* --- which path scored each view column -------------------------------- *)

(* Each (view, source attribute) scored counts once, on
   [match.view_columns.composed] when the column was scored in its
   partition family's id space, on [match.view_columns.scanned]
   otherwise.  NaiveInfer's views all select values of one attribute,
   so with the kernel on every column composes; with it off none
   does. *)
let test_view_column_paths () =
  let count run name =
    Option.value ~default:0 (List.assoc_opt name (counters_for run ~jobs:1))
  in
  let legacy ~jobs ~seed =
    let params = { Workload.Retail.rows = 320; target_rows = 160; gamma = 8; seed } in
    let source = Workload.Retail.source params in
    let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
    let config =
      Ctxmatch.Config.with_kernel
        (Ctxmatch.Config.with_jobs
           (Ctxmatch.Config.with_seed (Ctxmatch.Config.early Ctxmatch.Config.default) seed)
           jobs)
        false
    in
    let infer = Ctxmatch.Context_match.infer_of `Naive ~target in
    Ctxmatch.Context_match.run ~config ~infer ~source ~target ()
  in
  Alcotest.(check bool) "NaiveInfer gamma 8: columns composed" true
    (count retail_views_run "match.view_columns.composed" > 0);
  Alcotest.(check int) "NaiveInfer gamma 8: no column scanned" 0
    (count retail_views_run "match.view_columns.scanned");
  Alcotest.(check int) "kernel off: no column composed" 0
    (count legacy "match.view_columns.composed");
  Alcotest.(check bool) "kernel off: columns scanned" true
    (count legacy "match.view_columns.scanned" > 0)

(* --- artefacts built on first use ---------------------------------------- *)

(* Whether [key] is in [memo]: a lookup whose computation raises stores
   nothing. *)
let present memo key =
  match Runtime.Memo.find_or_add memo key (fun () -> raise Exit) with
  | _ -> true
  | exception Exit -> false

(* On the benchmark's one-shot shape (Retail 800 rows, gamma 4,
   SrcClassInfer) every candidate view selects on ItemType, so
   families are built over ItemType only and StockStatus is never
   partitioned; and [cache.coded.values] counts each coded column's
   distinct non-null strings once. *)
let test_first_use_artefacts () =
  let open Relational in
  let params = { Workload.Retail.rows = 800; target_rows = 400; gamma = 4; seed = 1 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let config = Ctxmatch.Config.default in
  let prepared = Matching.Standard_match.prepare_target ~target () in
  let inventory = Database.table source Workload.Retail.source_table_name in
  let src_table = Table.name inventory in
  let model, families, coded_values =
    with_recorder @@ fun () ->
    let model = Matching.Standard_match.build ~prepared ~source ~target () in
    let m = Matching.Standard_match.matches_from model ~src_table ~tau:config.Ctxmatch.Config.tau in
    let families =
      Ctxmatch.Src_class_infer.infer.Ctxmatch.Infer.infer
        ~coded:(Matching.Standard_match.coded model inventory)
        (Stats.Rng.create 1) config ~source_table:inventory ~matches:m
    in
    List.iter
      (fun view -> ignore (Matching.Standard_match.view_matches model view ~base_matches:m))
      (Ctxmatch.Infer.views_of_families families);
    let counters = (Obs.Metrics.snapshot ()).Obs.Metrics.counters in
    (model, families, Option.value ~default:0 (List.assoc_opt "cache.coded.values" counters))
  in
  let item_type = Workload.Retail.item_type_attr and stock = Workload.Retail.stock_status_attr in
  Alcotest.(check bool) "views were inferred" true (families <> []);
  Alcotest.(check (list string)) "every family selects on ItemType" [ item_type ]
    (List.sort_uniq String.compare (List.map (fun f -> f.View.attribute) families));
  let cache = Matching.Standard_match.profile_cache model in
  let attrs = Schema.attribute_names (Table.schema inventory) in
  let family_over cond =
    List.exists
      (fun attr ->
        present cache.Matching.Profile_cache.families (src_table, cond, attr)
        || List.exists
             (fun kind -> present cache.set_families (src_table, cond, attr, kind))
             Matching.Profile_cache.[ Values; Words ])
      attrs
  in
  Alcotest.(check bool) "families built over ItemType" true (family_over item_type);
  Alcotest.(check bool) "no family built over StockStatus" false (family_over stock);
  Alcotest.(check bool) "StockStatus never partitioned" false
    (present cache.partitions (src_table, stock));
  let distinct attr =
    Array.to_list (Table.column inventory attr)
    |> List.filter_map (fun v -> if Value.is_null v then None else Some (Value.to_string v))
    |> List.sort_uniq String.compare |> List.length
  in
  let coded = List.filter (fun attr -> present cache.coded (src_table, attr)) attrs in
  Alcotest.(check bool) "some columns coded" true (coded <> []);
  Alcotest.(check int) "cache.coded.values = distinct strings of the coded columns"
    (List.fold_left (fun n attr -> n + distinct attr) 0 coded)
    coded_values

(* --- exporters --------------------------------------------------------- *)

let test_exporters_json () =
  with_recorder @@ fun () ->
  ignore (retail_run ~jobs:2 ~seed:3);
  let metrics = Obs.Export.metrics_json ~extra:[ ("degraded_issues", "0") ] () in
  Alcotest.(check bool) "metrics document parses" true (Json_check.is_valid metrics);
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " present") true (contains field metrics))
    [
      "\"spans\"";
      "\"counters\"";
      "\"pool\"";
      "\"utilization\"";
      "cache.profile.lookups";
      "\"degraded_issues\"";
    ];
  let trace = Obs.Export.trace_jsonl () in
  let lines = String.split_on_char '\n' trace |> List.filter (fun l -> l <> "") in
  Alcotest.(check bool) "trace has lines" true (lines <> []);
  List.iter
    (fun line ->
      Alcotest.(check bool) "trace line parses" true (Json_check.is_valid line))
    lines;
  let tree = Obs.Export.span_tree () in
  Alcotest.(check bool) "span tree shows the pipeline root" true
    (contains "context_match" tree)

(* --- stats accessors --------------------------------------------------- *)

let test_memo_stats () =
  let m = Runtime.Memo.create () in
  ignore (Runtime.Memo.find_or_add m "a" (fun () -> 1));
  ignore (Runtime.Memo.find_or_add m "a" (fun () -> 2));
  ignore (Runtime.Memo.find_or_add m "b" (fun () -> 3));
  let s = Runtime.Memo.stats m in
  Alcotest.(check int) "hits" 1 s.Runtime.Memo.stat_hits;
  Alcotest.(check int) "misses" 2 s.Runtime.Memo.stat_misses;
  Alcotest.(check int) "entries" 2 s.Runtime.Memo.stat_entries;
  Runtime.Memo.clear m;
  let s = Runtime.Memo.stats m in
  Alcotest.(check int) "entries dropped by clear" 0 s.Runtime.Memo.stat_entries;
  Alcotest.(check int) "counters reset by clear" 0 (s.Runtime.Memo.stat_hits + s.Runtime.Memo.stat_misses)

let test_profile_cache_stats () =
  let c = Matching.Profile_cache.create () in
  let key = Matching.Profile_cache.key ~table:"t" ~attr:"a" ~indices:[| 0; 1; 2 |] in
  let profile () = Textsim.Profile.of_strings_array [| "x"; "y" |] in
  ignore (Runtime.Memo.find_or_add c.Matching.Profile_cache.profiles key profile);
  ignore (Runtime.Memo.find_or_add c.Matching.Profile_cache.profiles key profile);
  ignore
    (Runtime.Memo.find_or_add c.Matching.Profile_cache.distincts key (fun () -> [ "x" ]));
  let s = Matching.Profile_cache.stats c in
  Alcotest.(check int) "hits summed over tables" 1 s.Matching.Profile_cache.stat_hits;
  Alcotest.(check int) "misses summed over tables" 2 s.Matching.Profile_cache.stat_misses;
  Alcotest.(check int) "entries summed over tables" 2 s.Matching.Profile_cache.stat_entries

let () =
  Alcotest.run "ctxmatch-obs"
    [
      ( "obs",
        [
          Alcotest.test_case "disabled recorder is invisible" `Quick test_disabled_invisible;
          Alcotest.test_case "spans nest across pool fan-out" `Quick test_span_nesting;
          Alcotest.test_case "counters independent of jobs" `Slow test_counters_jobs_invariant;
          Alcotest.test_case "view columns: composed vs scanned" `Slow test_view_column_paths;
          Alcotest.test_case "artefacts built on first use" `Slow test_first_use_artefacts;
          Alcotest.test_case "exporters emit valid JSON" `Quick test_exporters_json;
          Alcotest.test_case "memo stats accessor" `Quick test_memo_stats;
          Alcotest.test_case "profile-cache stats accessor" `Quick test_profile_cache_stats;
        ] );
    ]
