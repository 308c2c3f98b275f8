(* Column, matchers, normalisation, StandardMatch / ScoreMatch. *)
open Relational

let close ?(eps = 1e-9) expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "expected %.6f got %.6f" expected actual)
    true
    (Float.abs (expected -. actual) < eps)

let mk_column name ty values =
  Matching.Column.make (Attribute.make name ty) (Array.of_list values)

let test_column_basics () =
  let c =
    mk_column "x" Value.Tstring [ Value.String "a"; Value.Null; Value.String "b" ]
  in
  Alcotest.(check int) "size incl nulls" 3 (Matching.Column.size c);
  Alcotest.(check int) "non-null" 2 (Matching.Column.non_null_count c);
  Alcotest.(check bool) "strings" true (Matching.Column.strings c = [| "a"; "b" |]);
  Alcotest.(check (list string)) "distinct" [ "a"; "b" ] (Matching.Column.distinct_strings c)

let test_column_floats () =
  let c = mk_column "x" Value.Tint [ Value.Int 1; Value.Bool true; Value.String "no" ] in
  Alcotest.(check bool) "numeric views" true (Matching.Column.floats c = [| 1.0; 1.0 |])

let test_column_of_view () =
  let schema = Schema.make "t" [ Attribute.string "k"; Attribute.int "n" ] in
  let table =
    Table.make schema
      [ [| Value.String "a"; Value.Int 1 |]; [| Value.String "b"; Value.Int 2 |] ]
  in
  let v = View.make table (Condition.Eq ("k", Value.String "a")) in
  let c = Matching.Column.of_view v "n" in
  Alcotest.(check bool) "restricted" true (Matching.Column.values c = [| Value.Int 1 |])

let test_name_matcher () =
  let a = mk_column "BookTitle" Value.Tstring [] in
  let b = mk_column "book_title" Value.Tstring [] in
  close ~eps:1e-6 1.0 (Matching.Matcher.score Matching.Matchers.name_matcher a b)

let test_qgram_matcher_applicability () =
  let s = mk_column "a" Value.Tstring [] in
  let n = mk_column "b" Value.Tint [] in
  Alcotest.(check bool) "string/string" true
    (Matching.Matcher.applicable_pair Matching.Matchers.qgram_matcher s s);
  Alcotest.(check bool) "string/int" false
    (Matching.Matcher.applicable_pair Matching.Matchers.qgram_matcher s n)

let test_numeric_matcher_orders_distances () =
  let col mu = mk_column "x" Value.Tfloat (List.init 50 (fun i -> Value.Float (mu +. float_of_int (i mod 10)))) in
  let base = col 0.0 in
  let near = col 2.0 in
  let far = col 50.0 in
  let score = Matching.Matcher.score Matching.Matchers.numeric_matcher in
  Alcotest.(check bool) "identical best" true (score base base > score base near);
  Alcotest.(check bool) "near beats far" true (score base near > score base far)

let test_value_overlap_matcher () =
  let a = mk_column "x" Value.Tint [ Value.Int 1; Value.Int 2 ] in
  let b = mk_column "y" Value.Tint [ Value.Int 2; Value.Int 3 ] in
  close (1.0 /. 3.0) (Matching.Matcher.score Matching.Matchers.value_overlap_matcher a b);
  let f = mk_column "z" Value.Tfloat [] in
  Alcotest.(check bool) "float not applicable" false
    (Matching.Matcher.applicable_pair Matching.Matchers.value_overlap_matcher a f)

let test_type_matcher () =
  let i = mk_column "a" Value.Tint [] in
  let f = mk_column "b" Value.Tfloat [] in
  let s = mk_column "c" Value.Tstring [] in
  let score = Matching.Matcher.score Matching.Matchers.type_matcher in
  close 1.0 (score i i);
  close 0.5 (score i f);
  close 0.0 (score i s)

let test_score_clamped () =
  let m =
    Matching.Matcher.make ~name:"wild" ~applicable:(fun _ _ -> true) (fun _ _ -> 7.5)
  in
  let c = mk_column "x" Value.Tstring [] in
  close 1.0 (Matching.Matcher.score m c c)

let test_normalize_confidence () =
  let st = Matching.Normalize.of_scores [| 0.1; 0.2; 0.3; 0.4; 0.5 |] in
  close ~eps:1e-6 0.5 (Matching.Normalize.confidence st 0.3);
  Alcotest.(check bool) "above mean > 0.5" true (Matching.Normalize.confidence st 0.5 > 0.8);
  Alcotest.(check bool) "below mean < 0.5" true (Matching.Normalize.confidence st 0.1 < 0.2)

let test_normalize_degenerate () =
  let st = Matching.Normalize.of_scores [| 0.4; 0.4; 0.4 |] in
  close 0.5 (Matching.Normalize.confidence st 0.4);
  close 0.5 (Matching.Normalize.confidence st 0.9)

let test_gated_confidence () =
  let st = Matching.Normalize.of_scores [| 0.0; 0.01; 0.02; 0.04 |] in
  (* standing out in a terrible field is still a terrible match *)
  Alcotest.(check bool) "gated low" true (Matching.Normalize.gated_confidence st 0.04 < 0.25);
  let st2 = Matching.Normalize.of_scores [| 0.1; 0.5; 0.9 |] in
  Alcotest.(check bool) "gated strong stays strong" true
    (Matching.Normalize.gated_confidence st2 0.9 > 0.7)

let test_combine () =
  close 0.0 (Matching.Normalize.combine []);
  close 0.5 (Matching.Normalize.combine [ (1.0, 0.5) ]);
  close 0.25 (Matching.Normalize.combine [ (1.0, 0.5); (3.0, 1.0 /. 6.0) ]);
  close 0.0 (Matching.Normalize.combine [ (0.0, 0.9) ])

let retail_model () =
  let params = { Workload.Retail.default_params with rows = 300; target_rows = 150 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  (params, source, target, Matching.Standard_match.build ~source ~target ())

let test_standard_match_finds_informative_pairs () =
  let _, _, _, model = retail_model () in
  let matches = Matching.Standard_match.matches model ~tau:0.5 in
  let has src tgt_table tgt =
    List.exists
      (fun (m : Matching.Schema_match.t) ->
        m.src_attr = src && m.tgt_table = tgt_table && m.tgt_attr = tgt)
      matches
  in
  Alcotest.(check bool) "title->BookTitle" true (has "Title" "Book" "BookTitle");
  Alcotest.(check bool) "title->AlbumTitle" true (has "Title" "Music" "AlbumTitle");
  Alcotest.(check bool) "creator->Author" true (has "Creator" "Book" "Author");
  Alcotest.(check bool) "price->BookPrice" true (has "Price" "Book" "BookPrice")

let test_standard_match_sorted_and_thresholded () =
  let _, _, _, model = retail_model () in
  let matches = Matching.Standard_match.matches model ~tau:0.6 in
  Alcotest.(check bool) "all above tau" true
    (List.for_all (fun (m : Matching.Schema_match.t) -> m.confidence >= 0.6) matches);
  let rec sorted = function
    | (a : Matching.Schema_match.t) :: (b :: _ as rest) ->
      a.confidence >= b.confidence && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted" true (sorted matches)

let test_standard_match_tau_monotone () =
  let _, _, _, model = retail_model () in
  let n tau = List.length (Matching.Standard_match.matches model ~tau) in
  Alcotest.(check bool) "monotone" true (n 0.3 >= n 0.5 && n 0.5 >= n 0.7)

let test_score_view_improves_true_match () =
  let params, source, target, model = retail_model () in
  let inv = Database.table source Workload.Retail.source_table_name in
  let books = Workload.Retail.book_labels ~gamma:params.Workload.Retail.gamma in
  let view =
    View.make inv (Condition.In (Workload.Retail.item_type_attr, books))
  in
  let base =
    Matching.Standard_match.confidence model ~src_table:"Inventory" ~src_attr:"Title"
      ~tgt_table:"Book" ~tgt_attr:"BookTitle"
  in
  let restricted =
    Matching.Standard_match.score_view model view ~src_attr:"Title" ~tgt_table:"Book"
      ~tgt_attr:"BookTitle"
  in
  Alcotest.(check bool) "book view improves title match" true (restricted > base);
  let wrong =
    Matching.Standard_match.score_view model view ~src_attr:"Title" ~tgt_table:"Music"
      ~tgt_attr:"AlbumTitle"
  in
  Alcotest.(check bool) "book view degrades music match" true (wrong < base +. 0.2);
  ignore target

let test_score_view_empty_view () =
  let _, source, _, model = retail_model () in
  let inv = Database.table source Workload.Retail.source_table_name in
  let view = View.make inv (Condition.Eq ("ItemType", Value.String "Vinyl")) in
  close 0.0
    (Matching.Standard_match.score_view model view ~src_attr:"Title" ~tgt_table:"Book"
       ~tgt_attr:"BookTitle")

let test_view_matches_annotates_condition () =
  let params, source, _, model = retail_model () in
  let inv = Database.table source Workload.Retail.source_table_name in
  let books = Workload.Retail.book_labels ~gamma:params.Workload.Retail.gamma in
  let cond = Condition.In (Workload.Retail.item_type_attr, books) in
  let view = View.make inv cond in
  let base = Matching.Standard_match.matches_from model ~src_table:"Inventory" ~tau:0.5 in
  let vm = Matching.Standard_match.view_matches model view ~base_matches:base in
  Alcotest.(check bool) "non-empty" true (vm <> []);
  Alcotest.(check int) "one per base match" (List.length base) (List.length vm);
  List.iter
    (fun (m : Matching.Schema_match.t) ->
      Alcotest.(check bool) "contextual" true (Matching.Schema_match.is_contextual m);
      Alcotest.(check bool) "condition kept" true (Condition.equal m.condition cond);
      Alcotest.(check string) "base recorded" "Inventory" m.src_base)
    vm

let test_schema_match_accessors () =
  let m =
    Matching.Schema_match.standard ~src_table:"s" ~src_attr:"a" ~tgt_table:"t" ~tgt_attr:"b" 0.7
  in
  Alcotest.(check bool) "standard not contextual" false (Matching.Schema_match.is_contextual m);
  let m2 = Matching.Schema_match.with_confidence m 0.9 in
  close 0.9 m2.Matching.Schema_match.confidence;
  let ctx =
    Matching.Schema_match.contextual ~view_name:"v" ~src_base:"s" ~src_attr:"a" ~tgt_table:"t"
      ~tgt_attr:"b" ~condition:(Condition.Eq ("k", Value.Int 1)) 0.8
  in
  Alcotest.(check bool) "same edge" true (Matching.Schema_match.same_edge m ctx);
  Alcotest.(check bool) "contextual" true (Matching.Schema_match.is_contextual ctx)

let suite =
  [
    Alcotest.test_case "column basics" `Quick test_column_basics;
    Alcotest.test_case "column floats" `Quick test_column_floats;
    Alcotest.test_case "column of view" `Quick test_column_of_view;
    Alcotest.test_case "name matcher" `Quick test_name_matcher;
    Alcotest.test_case "qgram applicability" `Quick test_qgram_matcher_applicability;
    Alcotest.test_case "numeric matcher ordering" `Quick test_numeric_matcher_orders_distances;
    Alcotest.test_case "value overlap matcher" `Quick test_value_overlap_matcher;
    Alcotest.test_case "type matcher" `Quick test_type_matcher;
    Alcotest.test_case "score clamped" `Quick test_score_clamped;
    Alcotest.test_case "normalize confidence" `Quick test_normalize_confidence;
    Alcotest.test_case "normalize degenerate" `Quick test_normalize_degenerate;
    Alcotest.test_case "gated confidence" `Quick test_gated_confidence;
    Alcotest.test_case "combine" `Quick test_combine;
    Alcotest.test_case "standard match informative pairs" `Quick
      test_standard_match_finds_informative_pairs;
    Alcotest.test_case "sorted and thresholded" `Quick test_standard_match_sorted_and_thresholded;
    Alcotest.test_case "tau monotone" `Quick test_standard_match_tau_monotone;
    Alcotest.test_case "score_view improves true match" `Quick test_score_view_improves_true_match;
    Alcotest.test_case "score_view empty view" `Quick test_score_view_empty_view;
    Alcotest.test_case "view_matches annotates condition" `Quick
      test_view_matches_annotates_condition;
    Alcotest.test_case "schema match accessors" `Quick test_schema_match_accessors;
  ]
