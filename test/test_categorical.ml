open Relational

let table_of_column name values =
  let schema = Schema.make "t" [ Attribute.string name ] in
  Table.make schema (List.map (fun v -> [| v |]) values)

let strings n f = List.init n (fun i -> Value.String (f i))

let test_low_cardinality_is_categorical () =
  let t = table_of_column "kind" (strings 100 (fun i -> if i mod 2 = 0 then "a" else "b")) in
  Alcotest.(check bool) "categorical" true (Categorical.is_categorical t "kind")

let test_unique_not_categorical () =
  let t = table_of_column "id" (strings 100 (fun i -> string_of_int i)) in
  Alcotest.(check bool) "unique column" false (Categorical.is_categorical t "id")

let test_constant_not_categorical () =
  let t = table_of_column "c" (strings 100 (fun _ -> "same")) in
  Alcotest.(check bool) "single value" false (Categorical.is_categorical t "c")

let test_empty_table () =
  let t = table_of_column "c" [] in
  Alcotest.(check bool) "empty" false (Categorical.is_categorical t "c")

let test_small_sample_rule () =
  (* two values, two tuples each: the small-sample rule accepts *)
  let t = table_of_column "k" (strings 4 (fun i -> if i < 2 then "x" else "y")) in
  Alcotest.(check bool) "small sample" true (Categorical.is_categorical t "k")

let test_small_sample_singletons_rejected () =
  let t = table_of_column "k" (strings 4 (fun i -> Printf.sprintf "v%d" i)) in
  Alcotest.(check bool) "all singleton values" false (Categorical.is_categorical t "k")

let test_heavy_fraction_rule () =
  (* 2 heavy values (100 rows each) + 98 singleton values:
     heavy/distinct = 2/100 = 2% < 10% -> not categorical *)
  let values =
    strings 100 (fun i -> if i mod 2 = 0 then "a" else "b")
    @ strings 98 (fun i -> Printf.sprintf "rare%d" i)
  in
  let t = table_of_column "k" values in
  Alcotest.(check bool) "mostly-unique column" false (Categorical.is_categorical t "k")

let test_max_cardinality_guard () =
  (* 60 values x 10 rows each: all heavy, but cardinality 60 > default 50 *)
  let values = List.concat (List.init 60 (fun v -> strings 10 (fun _ -> Printf.sprintf "v%d" v))) in
  let t = table_of_column "k" values in
  Alcotest.(check bool) "over max cardinality" false (Categorical.is_categorical t "k");
  let params = { Categorical.default_params with max_cardinality = 100 } in
  Alcotest.(check bool) "with higher cap" true (Categorical.is_categorical ~params t "k")

let test_nulls_ignored () =
  let values = strings 50 (fun i -> if i mod 2 = 0 then "a" else "b") @ [ Value.Null; Value.Null ] in
  let t = table_of_column "k" values in
  Alcotest.(check bool) "categorical despite nulls" true (Categorical.is_categorical t "k")

let test_categorical_attributes_order () =
  let schema =
    Schema.make "t" [ Attribute.string "id"; Attribute.string "kind"; Attribute.string "status" ]
  in
  let rows =
    List.init 100 (fun i ->
        [|
          Value.String (string_of_int i);
          Value.String (if i mod 2 = 0 then "a" else "b");
          Value.String (match i mod 3 with 0 -> "lo" | 1 -> "mid" | _ -> "hi");
        |])
  in
  let t = Table.make schema rows in
  Alcotest.(check (list string)) "schema order" [ "kind"; "status" ]
    (Categorical.categorical_attributes t)

(* Random params and a column whose distinct count sits at, just
   under or just over the params' max_cardinality (or anywhere), with
   nulls, repeats, and Int 1 next to Float 1. (distinct values). *)
let params_and_column_gen =
  let open QCheck.Gen in
  let params_gen =
    map
      (fun ((share, fraction), (min_heavy, min_rows), max_cardinality) ->
        {
          Categorical.heavy_value_share = share;
          heavy_fraction = fraction;
          min_heavy_values = min_heavy;
          min_rows_per_value = min_rows;
          max_cardinality;
        })
      (triple
         (pair (float_range 0. 0.3) (float_range 0. 0.5))
         (pair (int_range 0 3) (int_range 0 3))
         (int_range 0 14))
  in
  frequency [ (1, return Categorical.default_params); (3, params_gen) ] >>= fun params ->
  let m = params.Categorical.max_cardinality in
  oneofl [ m - 1; m; m + 1; m + 1; 0; 1 ] >>= fun distinct ->
  let distinct = max 0 distinct in
  let value i =
    match i with 0 -> Value.Int 1 | 1 -> Value.Float 1. | i -> Value.String (Printf.sprintf "v%d" i)
  in
  list_repeat distinct (int_range 1 6) >>= fun repeats ->
  int_range 0 4 >>= fun nulls ->
  let cells =
    List.concat (List.mapi (fun i r -> List.init r (fun _ -> value i)) repeats)
    @ List.init nulls (fun _ -> Value.Null)
  in
  shuffle_l cells >|= fun cells -> (params, cells)

let qcheck_matches_oracle =
  QCheck.Test.make ~name:"is_categorical = value_counts oracle" ~count:1000
    (QCheck.make
       ~print:(fun (p, cells) ->
         Printf.sprintf "max_cardinality %d: [%s]" p.Categorical.max_cardinality
           (String.concat "; " (List.map Value.to_string cells)))
       params_and_column_gen)
    (fun (params, cells) ->
      let t = table_of_column "k" cells in
      Categorical.is_categorical ~params t "k" = Oracle.Categorical.is_categorical ~params t "k")

let suite =
  [
    Alcotest.test_case "low cardinality" `Quick test_low_cardinality_is_categorical;
    Alcotest.test_case "unique column" `Quick test_unique_not_categorical;
    Alcotest.test_case "constant column" `Quick test_constant_not_categorical;
    Alcotest.test_case "empty table" `Quick test_empty_table;
    Alcotest.test_case "small-sample rule" `Quick test_small_sample_rule;
    Alcotest.test_case "small-sample singletons" `Quick test_small_sample_singletons_rejected;
    Alcotest.test_case "heavy-fraction rule" `Quick test_heavy_fraction_rule;
    Alcotest.test_case "max cardinality guard" `Quick test_max_cardinality_guard;
    Alcotest.test_case "nulls ignored" `Quick test_nulls_ignored;
    Alcotest.test_case "attributes in schema order" `Quick test_categorical_attributes_order;
    QCheck_alcotest.to_alcotest qcheck_matches_oracle;
  ]
