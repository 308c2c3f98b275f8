(* ClusteredViewGen under the production SrcClassInfer and TgtClassInfer
   teachers against the same algorithm under oracle-backed teachers
   (string-keyed naive Bayes, every cell re-tokenized every round): the
   families, their view conditions and the exact bits of their
   qualities must agree. *)
open Relational

let config = Ctxmatch.Config.default

let fingerprint families =
  List.map
    (fun (f : View.family) ->
      Printf.sprintf "%s/%d/%h/%s" f.View.attribute (List.length f.View.views) f.View.quality
        (String.concat ","
           (List.map (fun v -> Condition.to_string (View.condition v)) f.View.views)))
    families

let generate ~seed ~early teacher table =
  let config = { config with Ctxmatch.Config.early_disjuncts = early; seed } in
  fingerprint (Ctxmatch.Clustered_view_gen.generate (Stats.Rng.create seed) config teacher table)

let retail ~seed ~gamma =
  let params = { Workload.Retail.rows = 200; target_rows = 100; gamma; seed } in
  ( Database.table (Workload.Retail.source params) Workload.Retail.source_table_name,
    Workload.Retail.target params Workload.Retail.Ryan_eyers )

let check_against_oracle ~what ~target table =
  List.iter
    (fun early ->
      List.iter
        (fun seed ->
          let name teacher =
            Printf.sprintf "%s %s seed=%d early=%b" what teacher seed early
          in
          Alcotest.(check (list string)) (name "src")
            (generate ~seed ~early Oracle.Teachers.src table)
            (generate ~seed ~early Ctxmatch.Src_class_infer.teacher table);
          Alcotest.(check (list string)) (name "tgt")
            (generate ~seed ~early (Oracle.Teachers.tgt target) table)
            (generate ~seed ~early (Ctxmatch.Tgt_class_infer.teacher target) table))
        [ 1; 2; 3 ])
    [ true; false ]

let test_retail_matches_oracle () =
  List.iter
    (fun (seed, gamma) ->
      let table, target = retail ~seed ~gamma in
      check_against_oracle ~what:(Printf.sprintf "retail %d gamma=%d" seed gamma) ~target table)
    [ (1, 2); (2, 4); (3, 8); (4, 4) ];
  (* Both tables are called Inventory and go through one teacher value
     back to back: each must equal its own fresh call, so nothing is
     cached across calls by table name. *)
  let a, target = retail ~seed:5 ~gamma:4 and b, _ = retail ~seed:6 ~gamma:4 in
  List.iter
    (fun (what, teacher_of) ->
      let fresh table = generate ~seed:7 ~early:true (teacher_of ()) table in
      let shared = teacher_of () in
      let a' = generate ~seed:7 ~early:true shared a in
      let b' = generate ~seed:7 ~early:true shared b in
      Alcotest.(check (list string)) (what ^ ": first Inventory") (fresh a) a';
      Alcotest.(check (list string)) (what ^ ": second Inventory") (fresh b) b';
      Alcotest.(check bool) (what ^ ": the two differ") true (a' <> b'))
    [
      ("src", fun () -> Ctxmatch.Src_class_infer.teacher);
      ("tgt", fun () -> Ctxmatch.Tgt_class_infer.teacher target);
    ]

(* h columns that hold nulls, Bools, numbers written as text, and one
   odd-typed cell in a numeric and in a text column, so that whenever
   that cell is held out, one of the classifier's cross-type fallbacks
   classifies it: text under numeric-only training (qty's "47") and a
   number under text-only training (code's 12). *)
let mixed_table () =
  let rng = Stats.Rng.create 31 in
  let schema =
    Schema.make "mixed"
      [
        Attribute.string "kind";
        Attribute.string "title";
        Attribute.string "flagged";
        Attribute.string "price_text";
        Attribute.int "qty";
        Attribute.string "code";
      ]
  in
  let row i =
    let kind = Stats.Rng.pick rng [| "p"; "q"; "r" |] in
    let offset = match kind with "p" -> 10.0 | "q" -> 30.0 | _ -> 50.0 in
    let title () =
      if kind = "p" then (Workload.Corpus.book rng).Workload.Corpus.book_title
      else (Workload.Corpus.album rng).Workload.Corpus.album_title
    in
    let qty = int_of_float offset + Stats.Rng.int rng 15 in
    [|
      Value.String kind;
      (if i mod 7 = 0 then Value.Null else Value.String (title ()));
      (if i mod 5 = 0 then Value.Bool (kind = "p") else Value.String (title ()));
      Value.String (Printf.sprintf "%.2f" (offset +. Stats.Rng.float rng 10.0));
      (if i = 5 then Value.String "47" else if i mod 13 = 0 then Value.Null else Value.Int qty);
      (if i = 3 then Value.Int 12 else Value.String (title ()));
    |]
  in
  Table.of_rows schema (Array.init 160 row)

(* One verdict down to every cell of its confusion matrix. *)
let verdict_fingerprint = function
  | None -> "none"
  | Some (v : Ctxmatch.Clustered_view_gen.verdict) ->
    let c = v.Ctxmatch.Clustered_view_gen.confusion in
    let labels = Stats.Confusion.labels c in
    Printf.sprintf "%h %h %b %s" v.quality v.null_likelihood v.significant
      (String.concat ";"
         (List.concat_map
            (fun truth ->
              List.map
                (fun predicted ->
                  Printf.sprintf "%s>%s:%d" truth predicted
                    (Stats.Confusion.count c ~truth ~predicted))
                labels)
            labels))

let test_mixed_columns_match_oracle () =
  let _, target = retail ~seed:1 ~gamma:2 in
  let table = mixed_table () in
  check_against_oracle ~what:"mixed" ~target table;
  List.iter
    (fun h ->
      for seed = 1 to 20 do
        let verdict teacher =
          verdict_fingerprint
            (Ctxmatch.Clustered_view_gen.evaluate (Stats.Rng.create seed) config teacher table ~h
               ~l:"kind" ~label_map:Value.to_string)
        in
        let name teacher = Printf.sprintf "%s %s seed=%d" teacher h seed in
        Alcotest.(check string) (name "src") (verdict Oracle.Teachers.src)
          (verdict Ctxmatch.Src_class_infer.teacher);
        Alcotest.(check string) (name "tgt")
          (verdict (Oracle.Teachers.tgt target))
          (verdict (Ctxmatch.Tgt_class_infer.teacher target))
      done)
    [ "title"; "flagged"; "price_text"; "qty"; "code" ]

let suite =
  [
    Alcotest.test_case "retail: teachers = oracle" `Quick test_retail_matches_oracle;
    Alcotest.test_case "mixed h columns: teachers = oracle" `Quick test_mixed_columns_match_oracle;
  ]
