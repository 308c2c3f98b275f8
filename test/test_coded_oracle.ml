(* Coded columns against the string path (test/oracle [Strings]): every
   artefact counted from a coded column — base profiles, distinct and
   word sets, every partition family row, the classifier's features —
   must equal the artefact built by tokenizing the covered rows' display
   strings, floats compared as IEEE bits. *)
open Relational

(* Nulls, [Int 1] next to [Float 1.], empty strings and shared
   prefixes, non-ASCII text, numbers among text; the small pool makes
   duplicates common. *)
let cell_pool =
  Value.
    [|
      Null; Int 1; Float 1.0; Float 2.5; Int 12; String ""; String "a"; String "ab"; String "abc";
      String "abd"; String "abcd"; String "\xc3\xa9"; String "\xc3\xa9a";
      String "\xe6\x97\xa5\xe6\x9c\xac"; String "na\xc3\xafve caf\xc3\xa9"; String "a b";
      String "b a"; String "12"; String "1.0"; String "Ab AB ab"; Bool true;
    |]

(* Condition cells: [Int 1] and [Float 1.] share a partition group. *)
let cond_pool = Value.[| Null; Int 1; Float 1.0; Int 2; String "x"; String "y" |]

let labels_pool = [| "p"; "q"; "r" |]

(* Rows of (condition, text, label, trained?), sometimes all-null text. *)
let case_gen =
  QCheck.Gen.(
    let row cell =
      quad (oneofa cond_pool) cell (oneofa labels_pool) (frequency [ (2, return true); (1, return false) ])
    in
    frequency
      [
        (6, list_size (1 -- 30) (row (oneofa cell_pool)));
        (1, list_size (1 -- 4) (row (return Value.Null)));
      ])

let print_case rows =
  String.concat "; "
    (List.map
       (fun (k, v, l, t) -> Printf.sprintf "%s|%S|%s|%b" (Value.to_string k) (Value.to_string v) l t)
       rows)

let table_of rows =
  Table.make
    (Schema.make "coded" [ Attribute.float "k"; Attribute.string "txt" ])
    (List.map (fun (k, v, _, _) -> [| k; v |]) rows)

let bits x = Printf.sprintf "%h" x

let same_profile (a : Textsim.Profile.t) (b : Textsim.Profile.t) =
  Textsim.Profile.counts a = Textsim.Profile.counts b
  && Textsim.Profile.total a = Textsim.Profile.total b
  && bits (Textsim.Profile.norm a) = bits (Textsim.Profile.norm b)

let strings_of dict ids = Array.to_list (Array.map (Textsim.Gram_dict.gram dict) ids)

(* Base artefacts, through a column without a cache and through a
   cache's memoised coded column. *)
let base_ok tbl =
  let all = Array.init (Table.row_count tbl) Fun.id in
  let cells = Oracle.Strings.cells tbl "txt" all in
  List.for_all
    (fun col ->
      same_profile (Matching.Column.profile col) (Oracle.Strings.profile cells)
      && Matching.Column.distinct_strings col = Oracle.Strings.distinct cells
      && Matching.Column.words col = Oracle.Strings.word_list cells)
    [
      Matching.Column.of_table tbl "txt";
      Matching.Column.of_table ~cache:(Matching.Profile_cache.create ()) tbl "txt";
    ]

(* Every row of every family over the condition attribute. *)
let families_ok tbl =
  let cache = Matching.Profile_cache.create () in
  let part = Matching.Profile_cache.partition cache ~table:tbl ~cond_attr:"k" in
  let fam = Matching.Profile_cache.family cache ~table:tbl ~cond_attr:"k" ~attr:"txt" in
  let set kind = Matching.Profile_cache.set_family cache ~table:tbl ~cond_attr:"k" ~attr:"txt" kind in
  let values = set Matching.Profile_cache.Values and words = set Matching.Profile_cache.Words in
  Array.for_all Fun.id
    (Array.mapi
       (fun g rows ->
         let cells = Oracle.Strings.cells tbl "txt" rows in
         let ids, counts = Textsim.Csr.ints_row fam.Matching.Profile_cache.fam_rows g in
         let row =
           Array.map2
             (fun id c -> (Textsim.Gram_dict.gram fam.Matching.Profile_cache.fam_dict id, c))
             ids counts
         in
         row = Textsim.Profile.counts (Oracle.Strings.profile cells)
         && strings_of values.set_dict values.set_rows.(g) = Oracle.Strings.distinct cells
         && strings_of words.set_dict words.set_rows.(g) = Oracle.Strings.word_list cells)
       part.Matching.Profile_cache.part_indices)

(* The classifier's log posteriors on every cell, trained on the rows
   marked for training, against the string-tokenized classifier. *)
let classifier_ok tbl rows =
  let features = Ctxmatch.Clustered_view_gen.column_features tbl ~h:"txt" in
  let labels = Array.of_list (List.map (fun (_, _, l, _) -> l) rows) in
  let train =
    Array.of_list
      (List.concat (List.mapi (fun i (_, _, _, t) -> if t then [ i ] else []) rows))
  in
  let classifier =
    Learn.Classifier.create
      (Learn.Classifier.column (fun () -> Matching.Profile_cache.code tbl "txt") features)
  in
  Array.iter (fun i -> Learn.Classifier.train classifier ~label:labels.(i) i) train;
  let show l = List.map (fun (label, x) -> label ^ "=" ^ bits x) l in
  List.for_all
    (fun i ->
      show (Learn.Classifier.log_posteriors classifier i)
      = show (Oracle.Strings.log_posteriors features ~labels ~train i))
    (List.init (Array.length features) Fun.id)

let qcheck_coded =
  QCheck.Test.make ~name:"coded artefacts = string path" ~count:300
    (QCheck.make ~print:print_case case_gen)
    (fun rows ->
      let tbl = table_of rows in
      base_ok tbl && families_ok tbl && classifier_ok tbl rows)

(* Codes follow string order, nulls get none, and a row subset reads
   only its own codes. *)
let test_coded_basics () =
  let cells = [| Some "b a"; None; Some "a"; Some "b a"; Some "a" |] in
  let coded = Textsim.Coded.make cells in
  Alcotest.(check int) "two distinct strings" 2 (Textsim.Coded.size coded);
  Alcotest.(check (list int)) "codes in string order" [ 1; -1; 0; 1; 0 ]
    (List.init 5 (Textsim.Coded.code coded));
  Alcotest.(check (array int)) "distinct set without tokenizing" [| 0; 1 |]
    (Textsim.Coded.value_ids coded);
  Alcotest.(check (array int)) "a row subset's values" [| 1 |]
    (Textsim.Coded.value_ids ~rows:[| 0; 1; 3 |] coded);
  Alcotest.(check (list string)) "words of a row subset" [ "a"; "b" ]
    (strings_of (Textsim.Coded.words coded) (Textsim.Coded.word_ids ~rows:[| 0 |] coded))

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_coded;
    Alcotest.test_case "coded column basics" `Quick test_coded_basics;
  ]
