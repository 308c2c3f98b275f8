(* ClusteredViewGen, the three InferCandidateViews implementations,
   disjunct merging, SelectContextualMatches, ContextMatch. *)
open Relational

let config = Ctxmatch.Config.default

(* A small table where `kind` is perfectly predicted by `text`
   (book/music vocabulary) and `noise` predicts nothing.  Labels
   starting with 'b' get book titles unless [is_book] says otherwise. *)
let clustered_table ?(rows = 120) ?(labels = [| "b"; "m" |])
    ?(is_book = fun label -> String.length label > 0 && label.[0] = 'b') () =
  let rng = Stats.Rng.create 17 in
  let schema =
    Schema.make "src"
      [ Attribute.string "kind"; Attribute.string "text"; Attribute.string "noise" ]
  in
  let row _ =
    let label = Stats.Rng.pick rng labels in
    let text =
      if is_book label then
        (Workload.Corpus.book rng).Workload.Corpus.book_title
      else (Workload.Corpus.album rng).Workload.Corpus.album_title
    in
    [| Value.String label; Value.String text; Value.String (Workload.Corpus.random_noise_text rng) |]
  in
  Table.of_rows schema (Array.init rows row)

let test_feature_of () =
  let schema = Schema.make "t" [ Attribute.int "n"; Attribute.string "s" ] in
  let table = Table.make schema [ [| Value.Int 3; Value.Null |] ] in
  let row = (Table.rows table).(0) in
  Alcotest.(check bool) "int is number" true
    (Ctxmatch.Clustered_view_gen.feature_of table ~h:"n" row = Learn.Classifier.Number 3.0);
  Alcotest.(check bool) "null is missing" true
    (Ctxmatch.Clustered_view_gen.feature_of table ~h:"s" row = Learn.Classifier.Missing)

let test_evaluate_significant_pair () =
  let table = clustered_table () in
  let rng = Stats.Rng.create 3 in
  match
    Ctxmatch.Clustered_view_gen.evaluate rng config Ctxmatch.Src_class_infer.teacher table
      ~h:"text" ~l:"kind" ~label_map:Value.to_string
  with
  | Some v ->
    Alcotest.(check bool) "significant" true v.Ctxmatch.Clustered_view_gen.significant;
    Alcotest.(check bool) "good quality" true (v.Ctxmatch.Clustered_view_gen.quality > 0.8)
  | None -> Alcotest.fail "expected a verdict"

let test_evaluate_insignificant_pair () =
  let table = clustered_table () in
  let rng = Stats.Rng.create 3 in
  match
    Ctxmatch.Clustered_view_gen.evaluate rng config Ctxmatch.Src_class_infer.teacher table
      ~h:"noise" ~l:"kind" ~label_map:Value.to_string
  with
  | Some v -> Alcotest.(check bool) "not significant" false v.Ctxmatch.Clustered_view_gen.significant
  | None -> Alcotest.fail "expected a verdict"

let test_evaluate_degenerate_single_label () =
  let table = clustered_table ~labels:[| "b" |] () in
  let rng = Stats.Rng.create 3 in
  Alcotest.(check bool) "single label -> none" true
    (Ctxmatch.Clustered_view_gen.evaluate rng config Ctxmatch.Src_class_infer.teacher table
       ~h:"text" ~l:"kind" ~label_map:Value.to_string
    = None)

let test_best_verdict_picks_informative_h () =
  let table = clustered_table () in
  let rng = Stats.Rng.create 5 in
  match
    Ctxmatch.Clustered_view_gen.best_verdict rng config Ctxmatch.Src_class_infer.teacher table
      ~l:"kind"
  with
  | Some v -> Alcotest.(check string) "text chosen" "text" v.Ctxmatch.Clustered_view_gen.h_attr
  | None -> Alcotest.fail "expected a verdict"

let test_generate_family_on_kind () =
  let table = clustered_table () in
  let rng = Stats.Rng.create 7 in
  let families =
    Ctxmatch.Clustered_view_gen.generate rng config Ctxmatch.Src_class_infer.teacher table
  in
  Alcotest.(check bool) "at least one family" true (families <> []);
  Alcotest.(check bool) "family on kind" true
    (List.for_all (fun f -> f.View.attribute = "kind") families)

let test_merged_families_group_same_type_labels () =
  (* 4 labels, b1/b2 both carry book text and m1/m2 music text: merging
     should group them into {b1,b2} and {m1,m2} *)
  let table = clustered_table ~rows:240 ~labels:[| "b1"; "b2"; "m1"; "m2" |] () in
  let rng = Stats.Rng.create 11 in
  let families =
    Ctxmatch.Clustered_view_gen.merged_families rng config Ctxmatch.Src_class_infer.teacher table
      ~l:"kind" ~h:"text"
  in
  Alcotest.(check bool) "merged families exist" true (families <> []);
  let groups_ok =
    List.exists
      (fun f ->
        List.exists
          (fun v ->
            match Condition.selected_values (View.condition v) with
            | Some ("kind", vs) ->
              let names = List.map Value.to_string vs in
              names = [ "b1"; "b2" ] || names = [ "m1"; "m2" ]
            | _ -> false)
          f.View.views)
      families
  in
  Alcotest.(check bool) "same-type labels merged" true groups_ok

(* After b1 and b2 merge, their group's label must not equal the label
   of a real value spelled "b1|b2": the two classes would be conflated
   and the merged family lost. *)
let test_merged_families_label_collision () =
  List.iter
    (fun x ->
      let table =
        clustered_table ~rows:300 ~labels:[| "b1"; "b2"; x |] ~is_book:(fun l -> l <> x) ()
      in
      let families =
        Ctxmatch.Clustered_view_gen.merged_families (Stats.Rng.create 11) config
          Ctxmatch.Src_class_infer.teacher table ~l:"kind" ~h:"text"
      in
      let views f = List.map (fun v -> Condition.to_string (View.condition v)) f.View.views in
      Alcotest.(check (list (list string)))
        (Printf.sprintf "X = %s" x)
        [ [ "kind IN (b1, b2)"; "kind = " ^ x ] ]
        (List.map views families))
    [ "m"; "zz"; "b1|b2" ]

let test_naive_partitions () =
  let parts = Ctxmatch.Naive_infer.partitions [ 1; 2; 3 ] ~limit:100 in
  Alcotest.(check int) "bell(3) = 5" 5 (List.length parts);
  List.iter
    (fun blocks ->
      let flattened = List.concat blocks |> List.sort compare in
      Alcotest.(check (list int)) "partition covers" [ 1; 2; 3 ] flattened)
    parts

let test_naive_partitions_limit () =
  let parts = Ctxmatch.Naive_infer.partitions [ 1; 2; 3; 4; 5 ] ~limit:10 in
  Alcotest.(check int) "truncated" 10 (List.length parts)

let test_bell_numbers () =
  List.iteri
    (fun i expected -> Alcotest.(check int) (Printf.sprintf "bell %d" i) expected (Ctxmatch.Naive_infer.bell_number i))
    [ 1; 1; 2; 5; 15; 52; 203 ]

let test_naive_infer_empty_matches () =
  let table = clustered_table () in
  let rng = Stats.Rng.create 1 in
  Alcotest.(check int) "no matches -> no views" 0
    (List.length (Ctxmatch.Naive_infer.infer.Ctxmatch.Infer.infer rng config ~source_table:table ~matches:[]))

let test_naive_infer_views_per_value () =
  let table = clustered_table () in
  let rng = Stats.Rng.create 1 in
  let fake_match =
    Matching.Schema_match.standard ~src_table:"src" ~src_attr:"text" ~tgt_table:"t"
      ~tgt_attr:"a" 0.9
  in
  let late = { config with Ctxmatch.Config.early_disjuncts = false } in
  let families =
    Ctxmatch.Naive_infer.infer.Ctxmatch.Infer.infer rng late ~source_table:table
      ~matches:[ fake_match ]
  in
  (* kind and possibly noise-derived categoricals; kind family has 2 views *)
  let kind_family = List.find (fun f -> f.View.attribute = "kind") families in
  Alcotest.(check int) "one view per value" 2 (List.length kind_family.View.views)

let test_infer_views_of_families_dedup () =
  let table = clustered_table () in
  let f1 = View.partition_family table "kind" in
  let f2 = View.partition_family table "kind" in
  Alcotest.(check int) "duplicates removed" 2
    (List.length (Ctxmatch.Infer.views_of_families [ f1; f2 ]))

(* A value holding list punctuation must not make two views print
   alike: unquoted, [k IN ('a, b', c)] (3 rows) and [k IN (a, b, c)]
   (5 rows) both printed [k IN (a, b, c)], so the dedup kept only 3 of
   these 4 views and the two view names collided. *)
let test_infer_views_quoted_values () =
  let schema = Schema.make "T" [ Attribute.string "k"; Attribute.string "txt" ] in
  let row k = [| Value.String k; Value.String ("row " ^ k) |] in
  let table = Table.make schema (List.map row [ "a"; "a"; "b"; "c"; "c"; "a, b" ]) in
  let s x = Value.String x in
  let f1 = View.family_of_values table "k" [ [ s "a"; s "b"; s "c" ]; [ s "a, b" ] ] in
  let f2 = View.family_of_values table "k" [ [ s "a, b"; s "c" ]; [ s "a"; s "b" ] ] in
  let views = Ctxmatch.Infer.views_of_families [ f1; f2 ] in
  Alcotest.(check int) "all four views kept" 4 (List.length views);
  Alcotest.(check (list int))
    "row counts" [ 5; 1; 3; 3 ] (List.map View.row_count views);
  Alcotest.(check int) "view names distinct" 4
    (List.length (List.sort_uniq String.compare (List.map View.name views)));
  Alcotest.(check string)
    "quoted value" "T where k IN ('a, b', c)"
    (View.name (List.nth views 2))

let test_tgt_tagger () =
  let params = { Workload.Retail.default_params with target_rows = 150 } in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let tagger = Ctxmatch.Tgt_class_infer.make_tagger target in
  let rng = Stats.Rng.create 23 in
  let book = Workload.Corpus.book rng in
  (match Ctxmatch.Tgt_class_infer.tag tagger (Learn.Classifier.Text book.Workload.Corpus.book_title) with
  | Some tag -> Alcotest.(check string) "book title tagged" "Book.BookTitle" tag
  | None -> Alcotest.fail "expected tag");
  match Ctxmatch.Tgt_class_infer.tag tagger Learn.Classifier.Missing with
  | None -> ()
  | Some t -> Alcotest.failf "missing should not tag, got %s" t

let suite =
  [
    Alcotest.test_case "feature_of" `Quick test_feature_of;
    Alcotest.test_case "evaluate significant pair" `Quick test_evaluate_significant_pair;
    Alcotest.test_case "evaluate insignificant pair" `Quick test_evaluate_insignificant_pair;
    Alcotest.test_case "evaluate single label" `Quick test_evaluate_degenerate_single_label;
    Alcotest.test_case "best verdict picks informative h" `Quick test_best_verdict_picks_informative_h;
    Alcotest.test_case "generate family on kind" `Quick test_generate_family_on_kind;
    Alcotest.test_case "merged families group labels" `Quick test_merged_families_group_same_type_labels;
    Alcotest.test_case "merged label never collides" `Quick test_merged_families_label_collision;
    Alcotest.test_case "naive partitions" `Quick test_naive_partitions;
    Alcotest.test_case "naive partitions limit" `Quick test_naive_partitions_limit;
    Alcotest.test_case "bell numbers" `Quick test_bell_numbers;
    Alcotest.test_case "naive infer empty matches" `Quick test_naive_infer_empty_matches;
    Alcotest.test_case "naive infer views per value" `Quick test_naive_infer_views_per_value;
    Alcotest.test_case "views_of_families dedup" `Quick test_infer_views_of_families_dedup;
    Alcotest.test_case "views_of_families quoted values" `Quick test_infer_views_quoted_values;
    Alcotest.test_case "target tagger" `Quick test_tgt_tagger;
  ]
