(* Candidate-filter suite.

   The filter's central claims (DESIGN.md, "Candidate filter") are
   (1) a filter wide enough to keep every textual candidate degenerates
   to the unfiltered run exactly — byte-identical matches, standard
   matches and confidences — kernel on or off, store warm or cold, for
   every jobs value, and (2) a narrow filter, under any threshold, is
   kernel- and jobs-invariant, pairs accounting included.  The
   differential tests here hold the filter to both.  The rest covers
   plan-spec parsing, the serve daemon's plan surface, and the
   scoring-path determinism regressions (exact top-k boundary ties, NaN
   containment at Matcher.score, Simmetrics on empty inputs). *)

open Relational

let in_temp_dir f =
  let dir = Filename.temp_file "ctxplan" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* --- spec parsing ------------------------------------------------------ *)

let filter k tau = Some { Matching.Standard_match.k; tau }

let expect_spec input want =
  match Matching.Standard_match.filter_of_string input with
  | Ok got -> Alcotest.(check bool) (Printf.sprintf "parse %S" input) true (got = want)
  | Error m -> Alcotest.failf "parse %S failed: %s" input m

let expect_spec_error input =
  match Matching.Standard_match.filter_of_string input with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "parse %S must fail" input

let test_spec_parsing () =
  expect_spec "default" None;
  expect_spec "legacy" None;
  expect_spec "Filter" (filter 16 0.0);
  expect_spec "filter:8" (filter 8 0.0);
  expect_spec "filter:8,0.25" (filter 8 0.25);
  expect_spec " filter:3 , 0.5 " (filter 3 0.5);
  List.iter expect_spec_error
    [ ""; "nonsense"; "auto"; "filter:0"; "filter:-2"; "filter:x"; "filter:4,1.5"; "filter:4,-0.1";
      "filter:4,0.1,9" ];
  (* to_string round-trips through of_string *)
  List.iter
    (fun spec ->
      let printed = Matching.Standard_match.filter_to_string spec in
      match Matching.Standard_match.filter_of_string printed with
      | Ok got -> Alcotest.(check bool) "roundtrip" true (got = spec)
      | Error m -> Alcotest.failf "roundtrip %s: %s" printed m)
    [ None; filter 7 0.0; filter 5 0.3; filter 2 0.123456789; filter 1 (1.0 /. 3.0) ]

(* --- differential identity: filtered vs unfiltered ----------------------- *)

let fp_match (m : Matching.Schema_match.t) =
  Printf.sprintf "%s|%s|%s|%s.%s|%s|%h" m.src_owner m.src_base m.src_attr m.tgt_table
    m.tgt_attr
    (Condition.to_string m.condition)
    m.confidence

let fingerprint (r : Ctxmatch.Context_match.result) =
  String.concat "\n"
    (List.map fp_match r.Ctxmatch.Context_match.matches
    @ List.map fp_match r.Ctxmatch.Context_match.standard)

let retail_params =
  { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 }

let source_db = Workload.Retail.source retail_params
let target_db = Workload.Retail.target retail_params Workload.Retail.Ryan_eyers

let retail_run ?store ?(jobs = 1) ?(kernel = true) ?filter () =
  let config = { Ctxmatch.Config.default with jobs; kernel; filter } in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target:target_db in
  Ctxmatch.Context_match.run ~config ?store ~infer ~source:source_db ~target:target_db ()

(* A filter wide enough to keep every textual target (and tau = 0,
   which the index treats inclusively: untouched targets score an
   exact 0.0 >= 0.0) keeps exactly the legacy candidate set, so the
   run must be byte-identical to the unfiltered one — per jobs value,
   kernel on and off, store cold and warm. *)
let test_full_width_filter_is_default () =
  in_temp_dir @@ fun dir ->
  let want = fingerprint (retail_run ()) in
  let wide = filter 1024 0.0 in
  List.iter
    (fun kernel ->
      List.iter
        (fun jobs ->
          let r = retail_run ~jobs ~kernel ?filter:wide () in
          Alcotest.(check string)
            (Printf.sprintf "full-width filter jobs=%d kernel=%b" jobs kernel)
            want (fingerprint r);
          Alcotest.(check int)
            (Printf.sprintf "nothing pruned jobs=%d kernel=%b" jobs kernel)
            0 r.Ctxmatch.Context_match.pairs_pruned)
        [ 1; 4 ])
    [ true; false ];
  (* cold store run, then warm: same fingerprint again *)
  let store = Store.open_dir dir in
  let cold = retail_run ~store ?filter:wide () in
  Store.flush store;
  Alcotest.(check string) "cold store identical" want (fingerprint cold);
  let warm_store = Store.open_dir dir in
  let warm = retail_run ~store:warm_store ?filter:wide () in
  Alcotest.(check string) "warm store identical" want (fingerprint warm)

(* The reported plan name and the pairs accounting surface coherently. *)
let test_plan_accounting () =
  let base = retail_run () in
  Alcotest.(check string) "default plan named" "default"
    (Matching.Standard_match.filter_to_string None);
  Alcotest.(check int) "default prunes nothing" 0 base.Ctxmatch.Context_match.pairs_pruned;
  Alcotest.(check bool) "default scores pairs" true
    (base.Ctxmatch.Context_match.pairs_scored > 0);
  let narrow_filter = filter 1 0.0 in
  let narrow = retail_run ?filter:narrow_filter () in
  Alcotest.(check bool) "narrow filter prunes" true
    (narrow.Ctxmatch.Context_match.pairs_pruned > 0);
  Alcotest.(check bool) "narrow filter scores fewer pairs" true
    (narrow.Ctxmatch.Context_match.pairs_scored < base.Ctxmatch.Context_match.pairs_scored);
  Alcotest.(check string) "filter stage present" "filter:1"
    (Matching.Standard_match.filter_to_string narrow_filter)

(* The kernel is an acceleration, never a semantics switch: a filtered
   run scores the same candidates through the kernel's batch top-k and
   through the exact pairwise fallback, under a real threshold too. *)
let test_filtered_kernel_invariance () =
  List.iter
    (fun (k, tau) ->
      let filter = filter k tau in
      let on = retail_run ~kernel:true ?filter () in
      let off = retail_run ~kernel:false ?filter () in
      Alcotest.(check string)
        (Printf.sprintf "k=%d tau=%g kernel on/off identical" k tau)
        (fingerprint on) (fingerprint off);
      Alcotest.(check int)
        (Printf.sprintf "k=%d tau=%g same pruning" k tau)
        on.Ctxmatch.Context_match.pairs_pruned off.Ctxmatch.Context_match.pairs_pruned)
    [ (1, 0.0); (3, 0.0); (3, 0.2) ]

(* Filtered runs are jobs-invariant too, pairs accounting included. *)
let test_filtered_jobs_invariance () =
  List.iter
    (fun (k, tau) ->
      let filter = filter k tau in
      let base = retail_run ~jobs:1 ?filter () in
      List.iter
        (fun jobs ->
          let r = retail_run ~jobs ?filter () in
          let label what = Printf.sprintf "k=%d tau=%g jobs=%d %s" k tau jobs what in
          Alcotest.(check string) (label "identical") (fingerprint base) (fingerprint r);
          Alcotest.(check int) (label "pairs_scored")
            base.Ctxmatch.Context_match.pairs_scored r.Ctxmatch.Context_match.pairs_scored;
          Alcotest.(check int) (label "pairs_pruned")
            base.Ctxmatch.Context_match.pairs_pruned r.Ctxmatch.Context_match.pairs_pruned)
        [ 2; 4 ])
    [ (2, 0.0); (3, 0.2) ]

(* --- determinism regressions (scoring path) ----------------------------- *)

let check_bits what a b =
  Alcotest.(check string) what (Printf.sprintf "%h" a) (Printf.sprintf "%h" b)

(* Exact tie at the top-k boundary: three textual target columns with
   identical values, so every q-gram cosine against the source ties.
   The cut must fall deterministically — score descending, then target
   order — so under k = 2 the first two columns keep their q-gram score
   and the third is pruned. *)
let test_topk_exact_tie () =
  let text_table name attrs =
    Table.make
      (Schema.make name (List.map Attribute.string attrs))
      [ Array.of_list (List.map (fun _ -> Value.String "alpha beta") attrs) ]
  in
  let source = Database.make "src" [ text_table "s" [ "v" ] ] in
  let target = Database.make "tgt" [ text_table "t" [ "a"; "b"; "c" ] ] in
  let build k =
    Matching.Standard_match.build ~matchers:[ Matching.Matchers.qgram_matcher ]
      ~filter:{ Matching.Standard_match.k; tau = 0.0 } ~source ~target ()
  in
  let confidence m tgt_attr =
    Matching.Standard_match.confidence m ~src_table:"s" ~src_attr:"v" ~tgt_table:"t" ~tgt_attr
  in
  let m = build 2 in
  Alcotest.(check (pair int int)) "k=2: scored, pruned" (2, 1)
    (Matching.Standard_match.pairs_scored m, Matching.Standard_match.pairs_pruned m);
  Alcotest.(check bool) "first column kept" true (confidence m "a" > 0.0);
  check_bits "second column ties the first" (confidence m "a") (confidence m "b");
  check_bits "third column pruned" 0.0 (confidence m "c");
  (* a full-width filter keeps all three, tied *)
  let full = build 3 in
  Alcotest.(check (pair int int)) "k=3: scored, pruned" (3, 0)
    (Matching.Standard_match.pairs_scored full, Matching.Standard_match.pairs_pruned full);
  List.iter
    (fun attr ->
      Alcotest.(check bool) (attr ^ " kept") true (confidence full attr > 0.0);
      check_bits (attr ^ " ties the first") (confidence full "a") (confidence full attr))
    [ "b"; "c" ]

let mk_column name ty values =
  Matching.Column.make (Attribute.make name ty) (Array.of_list values)

(* A matcher whose raw score is NaN (or out of range) must never leak
   past Matcher.score: NaN poisons the z-normalised combination of
   every other matcher on the pair.  OCaml's Float.min/max propagate
   NaN, so the clamp alone is not enough — this is the regression. *)
let test_matcher_nan_containment () =
  let col = mk_column "x" Value.Tstring [ Value.String "a" ] in
  let fixed v =
    Matching.Matcher.make ~name:"fixed" ~applicable:(fun _ _ -> true) (fun _ _ -> v)
  in
  Alcotest.(check (float 0.0)) "nan -> 0" 0.0 (Matching.Matcher.score (fixed Float.nan) col col);
  Alcotest.(check (float 0.0)) "overflow clamps" 1.0 (Matching.Matcher.score (fixed 2.0) col col);
  Alcotest.(check (float 0.0)) "underflow clamps" 0.0 (Matching.Matcher.score (fixed (-3.0)) col col);
  Alcotest.(check (float 0.0)) "neg-infinity clamps" 0.0
    (Matching.Matcher.score (fixed Float.neg_infinity) col col);
  Alcotest.(check (float 0.0)) "infinity clamps" 1.0
    (Matching.Matcher.score (fixed Float.infinity) col col)

(* Empty-input edge cases across the string-similarity kernels: every
   guard must return a finite score in [0, 1], never divide by an
   empty length. *)
let test_simmetrics_empty_inputs () =
  let finite01 name v =
    Alcotest.(check bool) (name ^ " finite and in [0,1]") true
      ((not (Float.is_nan v)) && v >= 0.0 && v <= 1.0)
  in
  finite01 "jaro \"\" \"\"" (Textsim.Simmetrics.jaro "" "");
  finite01 "jaro a \"\"" (Textsim.Simmetrics.jaro "a" "");
  finite01 "jaro_winkler \"\" \"\"" (Textsim.Simmetrics.jaro_winkler "" "");
  finite01 "levenshtein_similarity \"\" \"\"" (Textsim.Simmetrics.levenshtein_similarity "" "");
  finite01 "jaccard [] []" (Textsim.Simmetrics.jaccard [] []);
  finite01 "dice [] []" (Textsim.Simmetrics.dice [] []);
  finite01 "overlap [] []" (Textsim.Simmetrics.overlap [] []);
  finite01 "overlap [] [a]" (Textsim.Simmetrics.overlap [] [ "a" ]);
  finite01 "cosine_bags [] []" (Textsim.Simmetrics.cosine_bags [] []);
  finite01 "name_similarity \"\" \"\"" (Textsim.Simmetrics.name_similarity "" "")

(* --- serve surface ------------------------------------------------------ *)

let csv_payload db =
  List.map
    (fun table -> (Table.name table, Csv_io.table_to_csv table))
    (Database.tables db)

let with_server dir f =
  let address =
    Serve.Server.Unix_sock (Filename.concat dir (Printf.sprintf "p%d.sock" (Unix.getpid ())))
  in
  let server = Serve.Server.create (Serve.Server.default_config address) in
  let thread = Serve.Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join thread)
    (fun () ->
      let client = Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 address in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () -> f client))

let expect_field json name =
  match Serve.Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply missing field %S: %s" name (Serve.Json.to_string json)

let str_field json name =
  match Serve.Json.to_string_opt (expect_field json name) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let int_field json name =
  match Serve.Json.to_int (expect_field json name) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an int" name

(* The daemon's plan surface: registration stores a per-target default
   plan (echoed by register and list-targets), a match request can
   override it, and every match reply reports the plan it executed
   with its pairs accounting.  Every surface renders a plan through the
   one printer, so a filter's TAU is never dropped. *)
let test_serve_plan_surface () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun client ->
  let register name plan =
    Serve.Client.request client
      (Serve.Protocol.register_json ~plan ~name (csv_payload target_db))
  in
  Alcotest.(check string) "register echoes plan" "filter:2"
    (str_field (register "retail" "filter:2") "plan");
  Alcotest.(check string) "register echoes tau" "filter:2,0.3"
    (str_field (register "retail_tau" "filter:2,0.3") "plan");
  (* list-targets shows the registered defaults *)
  let listing = Serve.Client.request client Serve.Protocol.list_targets_json in
  (match Serve.Json.to_list_opt (expect_field listing "targets") with
  | Some [ row; row_tau ] ->
    Alcotest.(check string) "listed plan" "filter:2" (str_field row "plan");
    Alcotest.(check string) "listed tau" "filter:2,0.3" (str_field row_tau "plan")
  | _ -> Alcotest.failf "expected two target rows: %s" (Serve.Json.to_string listing));
  (* a match with no plan field runs the target's default *)
  let run ?plan target =
    Serve.Client.request client (Serve.Protocol.match_json ?plan ~target (csv_payload source_db))
  in
  let m1 = run "retail" in
  Alcotest.(check string) "target default executed" "filter:2" (str_field m1 "plan");
  Alcotest.(check bool) "pairs accounted" true (int_field m1 "pairs_scored" > 0);
  Alcotest.(check string) "target tau executed" "filter:2,0.3"
    (str_field (run "retail_tau") "plan");
  (* a per-request override wins, and default reports zero pruned *)
  let m2 = run ~plan:"default" "retail" in
  Alcotest.(check string) "override executed" "default" (str_field m2 "plan");
  Alcotest.(check int) "default prunes nothing" 0 (int_field m2 "pairs_pruned");
  (* a bad plan spec is a structured bad-request, not a dead daemon;
     [auto] is not a spec *)
  List.iter
    (fun plan ->
      let bad = run ~plan "retail" in
      (match Serve.Json.to_bool (expect_field bad "ok") with
      | Some false -> ()
      | _ ->
        Alcotest.failf "bad plan spec %s must be rejected: %s" plan (Serve.Json.to_string bad));
      Alcotest.(check string) (plan ^ " reject code") "bad-request" (str_field bad "code"))
    [ "filter:0"; "auto" ]

let () =
  Alcotest.run "plan"
    [
      ( "spec",
        [
          Alcotest.test_case "parsing and roundtrip" `Quick test_spec_parsing;
        ] );
      ( "differential",
        [
          Alcotest.test_case "full-width filter = default (jobs x kernel x store)" `Quick
            test_full_width_filter_is_default;
          Alcotest.test_case "pairs accounting" `Quick test_plan_accounting;
          Alcotest.test_case "filtered kernel on/off invariance" `Quick
            test_filtered_kernel_invariance;
          Alcotest.test_case "filtered jobs invariance" `Quick test_filtered_jobs_invariance;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "exact top-k boundary ties" `Quick test_topk_exact_tie;
          Alcotest.test_case "NaN containment in Matcher.score" `Quick
            test_matcher_nan_containment;
          Alcotest.test_case "Simmetrics empty inputs" `Quick test_simmetrics_empty_inputs;
        ] );
      ( "serve",
        [ Alcotest.test_case "per-target plan surface" `Quick test_serve_plan_surface ] );
    ]
