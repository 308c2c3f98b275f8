open Relational

let test_type_of () =
  Alcotest.(check bool) "null has no type" true (Value.type_of Value.Null = None);
  Alcotest.(check bool) "int" true (Value.type_of (Value.Int 1) = Some Value.Tint);
  Alcotest.(check bool) "string" true (Value.type_of (Value.String "x") = Some Value.Tstring)

let test_compare_numeric_cross_type () =
  Alcotest.(check int) "int = float" 0 (Value.compare (Value.Int 2) (Value.Float 2.0));
  Alcotest.(check bool) "int < float" true (Value.compare (Value.Int 1) (Value.Float 1.5) < 0);
  Alcotest.(check bool) "float > int" true (Value.compare (Value.Float 3.5) (Value.Int 3) > 0)

let test_compare_rank_order () =
  Alcotest.(check bool) "null < bool" true (Value.compare Value.Null (Value.Bool false) < 0);
  Alcotest.(check bool) "bool < int" true (Value.compare (Value.Bool true) (Value.Int 0) < 0);
  Alcotest.(check bool) "num < string" true (Value.compare (Value.Int 99) (Value.String "a") < 0)

let test_equal_hash_consistent () =
  let a = Value.Int 2 and b = Value.Float 2.0 in
  Alcotest.(check bool) "equal" true (Value.equal a b);
  Alcotest.(check int) "hash agrees" (Value.hash a) (Value.hash b)

let test_to_string () =
  Alcotest.(check string) "null empty" "" (Value.to_string Value.Null);
  Alcotest.(check string) "int" "42" (Value.to_string (Value.Int 42));
  Alcotest.(check string) "float integer-valued" "2.0" (Value.to_string (Value.Float 2.0));
  Alcotest.(check string) "string" "hi" (Value.to_string (Value.String "hi"));
  Alcotest.(check string) "bool" "true" (Value.to_string (Value.Bool true))

let test_to_float () =
  Alcotest.(check bool) "int" true (Value.to_float (Value.Int 3) = Some 3.0);
  Alcotest.(check bool) "bool" true (Value.to_float (Value.Bool true) = Some 1.0);
  Alcotest.(check bool) "string none" true (Value.to_float (Value.String "3") = None);
  Alcotest.(check bool) "null none" true (Value.to_float Value.Null = None)

let test_of_string_as () =
  Alcotest.(check bool) "int parse" true (Value.of_string_as Value.Tint "41" = Value.Int 41);
  Alcotest.(check bool) "int trim" true (Value.of_string_as Value.Tint " 41 " = Value.Int 41);
  Alcotest.(check bool) "bad int -> null" true (Value.of_string_as Value.Tint "x" = Value.Null);
  Alcotest.(check bool) "empty -> null" true (Value.of_string_as Value.Tstring "" = Value.Null);
  Alcotest.(check bool) "bool yes" true (Value.of_string_as Value.Tbool "yes" = Value.Bool true);
  Alcotest.(check bool) "float" true (Value.of_string_as Value.Tfloat "2.5" = Value.Float 2.5)

let test_infer () =
  Alcotest.(check bool) "int" true (Value.infer "12" = Value.Int 12);
  Alcotest.(check bool) "float" true (Value.infer "1.5" = Value.Float 1.5);
  Alcotest.(check bool) "bool" true (Value.infer "true" = Value.Bool true);
  Alcotest.(check bool) "string" true (Value.infer "12a" = Value.String "12a");
  Alcotest.(check bool) "empty null" true (Value.infer "" = Value.Null)

let test_ty_roundtrip () =
  List.iter
    (fun ty ->
      Alcotest.(check bool) "roundtrip" true
        (Value.ty_of_string (Value.ty_to_string ty) = Some ty))
    [ Value.Tint; Value.Tfloat; Value.Tstring; Value.Tbool ];
  Alcotest.(check bool) "real -> float" true (Value.ty_of_string "real" = Some Value.Tfloat);
  Alcotest.(check bool) "unknown" true (Value.ty_of_string "blob" = None)

let qcheck_compare_antisymmetric =
  let gen =
    QCheck.oneof
      [
        QCheck.always Value.Null;
        QCheck.map (fun i -> Value.Int i) QCheck.small_int;
        QCheck.map (fun f -> Value.Float f) (QCheck.float_range (-100.0) 100.0);
        QCheck.map (fun s -> Value.String s) (QCheck.string_of_size (QCheck.Gen.return 3));
        QCheck.map (fun b -> Value.Bool b) QCheck.bool;
      ]
  in
  QCheck.Test.make ~name:"compare antisymmetric" ~count:500 (QCheck.pair gen gen)
    (fun (a, b) -> compare (Value.compare a b) 0 = compare 0 (Value.compare b a))

(* [to_string] calls the runtime float formatter directly; its bytes
   must be [Printf]'s for every float: random bit patterns (every
   exponent, NaN payloads included) and the edges of the integral
   branch. *)
let printf_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let float_edges =
  let around x = [ Float.pred x; x; Float.succ x ] in
  [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; 0.0; -0.0; Float.min_float;
    -.Float.min_float; 5e-324; -5e-324; Float.pred Float.min_float; Float.max_float;
    -.Float.max_float; 0.1; 123456.5; 1234567.0; 0.0001; 0.00001 ]
  @ around 1e15 @ around (-1e15) @ around 1e16 @ around 9007199254740992.0

let test_float_to_string_edges () =
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (printf_to_string f)
        (Value.to_string (Value.Float f)))
    float_edges

let qcheck_float_to_string =
  let bits = QCheck.map Int64.float_of_bits QCheck.int64 in
  let gen =
    QCheck.oneof
      [ bits; QCheck.float; QCheck.map float_of_int QCheck.int; QCheck.oneofl float_edges ]
  in
  QCheck.Test.make ~name:"float to_string = Printf" ~count:2000 gen (fun f ->
      Value.to_string (Value.Float f) = printf_to_string f)

let suite =
  [
    Alcotest.test_case "type_of" `Quick test_type_of;
    Alcotest.test_case "numeric cross-type compare" `Quick test_compare_numeric_cross_type;
    Alcotest.test_case "rank order" `Quick test_compare_rank_order;
    Alcotest.test_case "equal/hash consistent" `Quick test_equal_hash_consistent;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "to_float" `Quick test_to_float;
    Alcotest.test_case "of_string_as" `Quick test_of_string_as;
    Alcotest.test_case "infer" `Quick test_infer;
    Alcotest.test_case "ty roundtrip" `Quick test_ty_roundtrip;
    Alcotest.test_case "float to_string edges = Printf" `Quick test_float_to_string_edges;
    QCheck_alcotest.to_alcotest qcheck_compare_antisymmetric;
    QCheck_alcotest.to_alcotest qcheck_float_to_string;
  ]
