(* SQL rendering of mapping plans and the condition parser. *)
open Relational

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_quote_ident () =
  Alcotest.(check string) "plain" "\"name\"" (Mapping.Sql_render.quote_ident "name");
  Alcotest.(check string) "embedded quote" "\"a\"\"b\"" (Mapping.Sql_render.quote_ident "a\"b")

let test_literal () =
  Alcotest.(check string) "null" "NULL" (Mapping.Sql_render.literal Value.Null);
  Alcotest.(check string) "int" "42" (Mapping.Sql_render.literal (Value.Int 42));
  Alcotest.(check string) "bool" "TRUE" (Mapping.Sql_render.literal (Value.Bool true));
  Alcotest.(check string) "string escaped" "'o''brien'"
    (Mapping.Sql_render.literal (Value.String "o'brien"))

let test_float_literal_round_trips () =
  (* a condition on a float must select in SQL the rows the executor
     selects, so the literal reads back as the same float *)
  Alcotest.(check string) "seven digits kept" "0.1234567"
    (Mapping.Sql_render.literal (Value.Float 0.1234567));
  Alcotest.(check string) "integral float" "10" (Mapping.Sql_render.literal (Value.Float 10.0));
  Alcotest.(check string) "view condition" "\"p\" = 10.123456789"
    (Mapping.Sql_render.condition (Condition.Eq ("p", Value.Float 10.123456789)));
  List.iter
    (fun f ->
      let lit = Mapping.Sql_render.literal (Value.Float f) in
      Alcotest.(check bool) (Printf.sprintf "%s reads back as %h" lit f) true
        (Float.equal (float_of_string lit) f))
    [ 0.1; 1. /. 3.; 1.0000001; 1.0000002; 1e-7; 123456789.123; -2.5e300; 5e-324 ]

let test_condition_sql () =
  Alcotest.(check string) "eq" "\"type\" = 'a'"
    (Mapping.Sql_render.condition (Condition.Eq ("type", Value.String "a")));
  Alcotest.(check string) "in" "\"n\" IN (1, 2)"
    (Mapping.Sql_render.condition (Condition.In ("n", [ Value.Int 1; Value.Int 2 ])))

let test_view_definition () =
  let base =
    Table.make (Schema.make "t" [ Attribute.string "k" ]) [ [| Value.String "a" |] ]
  in
  let rel = Mapping.Relation.of_view ~name:"v" (View.make base (Condition.Eq ("k", Value.String "a"))) in
  (match Mapping.Sql_render.view_definition rel with
  | Some sql ->
    Alcotest.(check string) "create view" "CREATE VIEW \"v\" AS SELECT * FROM \"t\" WHERE \"k\" = 'a';" sql
  | None -> Alcotest.fail "expected view definition");
  Alcotest.(check bool) "base has none" true
    (Mapping.Sql_render.view_definition (Mapping.Relation.base base) = None)

let grades_plan () =
  let params = { Workload.Grades.default_params with students = 60 } in
  let source = Workload.Grades.narrow params in
  let target = Workload.Grades.wide params in
  let config =
    {
      Ctxmatch.Config.default with
      tau = 0.4;
      omega = 0.05;
      early_disjuncts = false;
      select = Ctxmatch.Config.Clio_qual_table;
    }
  in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  let r = Ctxmatch.Context_match.run ~config ~infer ~source ~target () in
  Mapping.Mapping_gen.plan ~source ~target ~matches:r.Ctxmatch.Context_match.matches ()

let test_script_structure () =
  let plan = grades_plan () in
  let sql = Mapping.Sql_render.script plan in
  Alcotest.(check bool) "has view definitions" true
    (String.length sql > 0
    && contains sql "CREATE VIEW"
    && contains sql "INSERT INTO \"grades_wide\"");
  Alcotest.(check bool) "mentions full outer join" true
    (contains sql "FULL OUTER JOIN")

let test_skolem_placeholder_quoted () =
  (* an unmatched target header is outside input: its quote must not end
     the Skolem placeholder's string literal *)
  let src =
    Table.make (Schema.make "s" [ Attribute.string "k" ]) [ [| Value.String "a" |] ]
  in
  let tgt =
    Table.make (Schema.make "t" [ Attribute.string "k"; Attribute.string "o'neil" ]) []
  in
  let matches =
    [
      Matching.Schema_match.contextual ~view_name:"s where k = a" ~src_base:"s" ~src_attr:"k"
        ~tgt_table:"t" ~tgt_attr:"k"
        ~condition:(Condition.Eq ("k", Value.String "a"))
        0.9;
    ]
  in
  let plan =
    Mapping.Mapping_gen.plan
      ~source:(Database.make "sdb" [ src ])
      ~target:(Database.make "tdb" [ tgt ])
      ~matches ()
  in
  let sql = Mapping.Sql_render.script plan in
  Alcotest.(check bool) "placeholder quote doubled" true
    (contains sql "'sk_o''neil(...)' AS \"o'neil\"");
  Alcotest.(check bool) "no unbalanced literal" false (contains sql "'sk_o'neil")

let test_parse_eq () =
  Alcotest.(check bool) "string value" true
    (Condition_parser.parse "type = 'book'" = Condition.Eq ("type", Value.String "book"));
  Alcotest.(check bool) "int value" true
    (Condition_parser.parse "n = 3" = Condition.Eq ("n", Value.Int 3));
  Alcotest.(check bool) "bare word is a string" true
    (Condition_parser.parse "kind = book" = Condition.Eq ("kind", Value.String "book"))

let test_parse_in () =
  Alcotest.(check bool) "in list" true
    (Condition_parser.parse "n IN (1, 2, 3)"
    = Condition.In ("n", [ Value.Int 1; Value.Int 2; Value.Int 3 ]))

let test_parse_boolean_structure () =
  let c = Condition_parser.parse "NOT (a = 1 OR b = 2) AND c = 3" in
  match c with
  | Condition.And (Condition.Not (Condition.Or _), Condition.Eq ("c", Value.Int 3)) -> ()
  | _ -> Alcotest.fail "unexpected parse structure"

let test_parse_quoted () =
  Alcotest.(check bool) "quoted ident" true
    (Condition_parser.parse "\"Item Type\" = 'a'"
    = Condition.Eq ("Item Type", Value.String "a"));
  Alcotest.(check bool) "escaped string" true
    (Condition_parser.parse "a = 'o''brien'" = Condition.Eq ("a", Value.String "o'brien"))

let test_parse_case_insensitive_keywords () =
  Alcotest.(check bool) "lowercase and" true
    (Condition_parser.parse "a = 1 and b = 2"
    = Condition.And (Condition.Eq ("a", Value.Int 1), Condition.Eq ("b", Value.Int 2)))

let test_parse_true () =
  Alcotest.(check bool) "TRUE" true (Condition_parser.parse "TRUE" = Condition.True)

let test_parse_errors () =
  let fails input =
    Alcotest.(check bool) (Printf.sprintf "reject %S" input) true
      (Condition_parser.parse_opt input = None)
  in
  fails "";
  fails "a =";
  fails "a = 1 extra";
  fails "a IN (1,";
  fails "(a = 1";
  fails "'unclosed"

let test_quoted_values_print () =
  let show c = Condition.to_string c in
  Alcotest.(check string) "comma" "k IN ('a, b', c)"
    (show (Condition.In ("k", [ Value.String "a, b"; Value.String "c" ])));
  Alcotest.(check string) "quote doubled" "k = 'it''s'"
    (show (Condition.Eq ("k", Value.String "it's")));
  Alcotest.(check string) "empty" "k = ''" (show (Condition.Eq ("k", Value.String "")));
  Alcotest.(check string) "plain values unchanged" "k IN (Book1, War and Peace, 3, 2.5)"
    (show
       (Condition.In
          ( "k",
            [ Value.String "Book1"; Value.String "War and Peace"; Value.Int 3; Value.Float 2.5 ]
          )))

let test_parse_roundtrip () =
  (* printed form of conditions parses back to an equal condition *)
  List.iter
    (fun c ->
      let back = Condition_parser.parse (Condition.to_string c) in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" (Condition.to_string c))
        true (Condition.equal back c))
    [
      Condition.Eq ("type", Value.String "book");
      Condition.In ("n", [ Value.Int 1; Value.Int 2 ]);
      Condition.And (Condition.Eq ("a", Value.Int 1), Condition.Eq ("b", Value.Int 2));
      Condition.Or (Condition.Eq ("a", Value.Int 1), Condition.Eq ("a", Value.Int 2));
      Condition.Not (Condition.Eq ("a", Value.Int 1));
      (* values that print single-quoted: list punctuation, quotes, empty *)
      Condition.Eq ("k", Value.String "a, b");
      Condition.In ("k", [ Value.String "a, b"; Value.String "c" ]);
      Condition.In ("k", [ Value.String "f(x)"; Value.String "("; Value.String ")" ]);
      Condition.Eq ("k", Value.String "it's");
      Condition.Eq ("k", Value.String "''");
      Condition.Eq ("k", Value.String "");
      Condition.In ("k", [ Value.String ""; Value.String "x" ]);
    ]

let suite =
  [
    Alcotest.test_case "quote ident" `Quick test_quote_ident;
    Alcotest.test_case "literal" `Quick test_literal;
    Alcotest.test_case "condition sql" `Quick test_condition_sql;
    Alcotest.test_case "float literal round-trips" `Quick test_float_literal_round_trips;
    Alcotest.test_case "skolem placeholder quoted" `Quick test_skolem_placeholder_quoted;
    Alcotest.test_case "view definition" `Quick test_view_definition;
    Alcotest.test_case "script structure" `Slow test_script_structure;
    Alcotest.test_case "parse eq" `Quick test_parse_eq;
    Alcotest.test_case "parse in" `Quick test_parse_in;
    Alcotest.test_case "parse boolean structure" `Quick test_parse_boolean_structure;
    Alcotest.test_case "parse quoted" `Quick test_parse_quoted;
    Alcotest.test_case "parse keywords case" `Quick test_parse_case_insensitive_keywords;
    Alcotest.test_case "parse TRUE" `Quick test_parse_true;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "quoted values print" `Quick test_quoted_values_print;
    Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
  ]
