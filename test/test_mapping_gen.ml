(* Mapping_gen plan structure and execution semantics. *)
open Relational

let retail_setup () =
  let params = { Workload.Retail.default_params with rows = 300; target_rows = 150 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  let r = Ctxmatch.Context_match.run ~config:Ctxmatch.Config.default ~infer ~source ~target () in
  let plan = Mapping.Mapping_gen.plan ~source ~target ~matches:r.Ctxmatch.Context_match.matches () in
  (params, source, target, r, plan)

let test_plan_relations () =
  let _, _, _, r, plan = retail_setup () in
  (* one base relation per source table + one view per distinct contextual source *)
  let views = List.filter Mapping.Relation.is_view plan.Mapping.Mapping_gen.relations in
  let distinct_view_names =
    Ctxmatch.Context_match.contextual_matches r
    |> List.map (fun (m : Matching.Schema_match.t) -> m.src_owner)
    |> List.sort_uniq String.compare
  in
  Alcotest.(check int) "one relation per distinct view" (List.length distinct_view_names)
    (List.length views);
  Alcotest.(check bool) "base table present" true
    (List.exists
       (fun rel -> Mapping.Relation.name rel = Workload.Retail.source_table_name)
       plan.Mapping.Mapping_gen.relations)

let test_plan_mappings_cover_targets () =
  let _, _, target, _, plan = retail_setup () in
  Alcotest.(check (list string)) "one mapping per target table"
    (Database.table_names target)
    (List.map (fun m -> m.Mapping.Mapping_gen.target_table) plan.Mapping.Mapping_gen.mappings)

let test_retail_execution_shapes () =
  let _, source, _, r, plan = retail_setup () in
  let mapped = Mapping.Mapping_gen.execute_all plan in
  let book = Database.table mapped "Book" in
  let music = Database.table mapped "Music" in
  (* horizontal partitioning: book rows + music rows = selected source rows *)
  let inv = Database.table source Workload.Retail.source_table_name in
  Alcotest.(check bool) "book rows from the book views only" true
    (Table.row_count book > 0 && Table.row_count book < Table.row_count inv);
  Alcotest.(check bool) "music rows too" true (Table.row_count music > 0);
  (* if both sides' views were selected, the partition is complete *)
  let contextual = Ctxmatch.Context_match.contextual_matches r in
  let sides =
    contextual
    |> List.map (fun (m : Matching.Schema_match.t) -> m.tgt_table)
    |> List.sort_uniq String.compare
  in
  if List.length sides = 2 then
    Alcotest.(check int) "partition complete" (Table.row_count inv)
      (Table.row_count book + Table.row_count music)

let test_executed_values_from_source () =
  let _, source, _, _, plan = retail_setup () in
  let mapped = Mapping.Mapping_gen.execute_all plan in
  let book = Database.table mapped "Book" in
  if Table.row_count book > 0 then begin
    let title = Table.cell book 0 "BookTitle" in
    let inv = Database.table source Workload.Retail.source_table_name in
    let titles = Table.distinct_values inv "Title" in
    Alcotest.(check bool) "title came from the source sample" true
      (List.exists (Value.equal title) titles)
  end

let test_skolem_fills_unmapped_string_attrs () =
  (* a target attribute with no correspondence gets a deterministic
     non-null Skolem value *)
  let src_schema = Schema.make "s" [ Attribute.string "k"; Attribute.string "v" ] in
  let src =
    Table.make src_schema
      [ [| Value.String "a"; Value.String "x" |]; [| Value.String "b"; Value.String "y" |] ]
  in
  let tgt_schema =
    Schema.make "t"
      [ Attribute.string "k"; Attribute.string "v"; Attribute.string "unmapped" ]
  in
  let target = Database.make "tdb" [ Table.make tgt_schema [] ] in
  let source = Database.make "sdb" [ src ] in
  let matches =
    [
      Matching.Schema_match.contextual ~view_name:"s where k = a" ~src_base:"s" ~src_attr:"k"
        ~tgt_table:"t" ~tgt_attr:"k"
        ~condition:(Condition.Eq ("k", Value.String "a"))
        0.9;
      Matching.Schema_match.contextual ~view_name:"s where k = a" ~src_base:"s" ~src_attr:"v"
        ~tgt_table:"t" ~tgt_attr:"v"
        ~condition:(Condition.Eq ("k", Value.String "a"))
        0.9;
    ]
  in
  let plan = Mapping.Mapping_gen.plan ~source ~target ~matches () in
  let mapped = Mapping.Mapping_gen.execute_all plan in
  let t = Database.table mapped "t" in
  Alcotest.(check int) "one row (k = a)" 1 (Table.row_count t);
  let unmapped = Table.cell t 0 "unmapped" in
  Alcotest.(check bool) "skolemised, not null" false (Value.is_null unmapped);
  Alcotest.(check bool) "skolem marker" true
    (String.length (Value.to_string unmapped) >= 3
    && String.sub (Value.to_string unmapped) 0 3 = "sk_")

let test_empty_matches_empty_outputs () =
  let src = Table.make (Schema.make "s" [ Attribute.int "a" ]) [ [| Value.Int 1 |] ] in
  let tgt = Table.make (Schema.make "t" [ Attribute.int "b" ]) [] in
  let plan =
    Mapping.Mapping_gen.plan
      ~source:(Database.make "sdb" [ src ])
      ~target:(Database.make "tdb" [ tgt ])
      ~matches:[] ()
  in
  let mapped = Mapping.Mapping_gen.execute_all plan in
  Alcotest.(check int) "no rows" 0 (Table.row_count (Database.table mapped "t"))

let test_declared_constraints_respected () =
  (* declared constraints flow into propagation even when mining would
     not find them (here: a declared key on an empty-ish instance) *)
  let src =
    Table.make
      (Schema.make "s" [ Attribute.string "k"; Attribute.string "l" ])
      [ [| Value.String "a"; Value.String "x" |]; [| Value.String "a"; Value.String "y" |] ]
  in
  let tgt = Table.make (Schema.make "t" [ Attribute.string "k" ]) [] in
  let matches =
    [
      Matching.Schema_match.contextual ~view_name:"s where l = x" ~src_base:"s" ~src_attr:"k"
        ~tgt_table:"t" ~tgt_attr:"k"
        ~condition:(Condition.Eq ("l", Value.String "x"))
        0.9;
    ]
  in
  let declared = [ Mapping.Constraints.key "s" [ "k"; "l" ] ] in
  let plan =
    Mapping.Mapping_gen.plan ~declared
      ~source:(Database.make "sdb" [ src ])
      ~target:(Database.make "tdb" [ tgt ])
      ~matches ()
  in
  Alcotest.(check bool) "contextual propagation fired from the declared key" true
    (List.exists
       (fun (d : Mapping.Propagation.derived) ->
         d.rule = "contextual-propagation"
         && d.constr = Mapping.Constraints.key "s where l = x" [ "k" ])
       plan.Mapping.Mapping_gen.derived)

let test_keys_mined_once_per_relation () =
  let params = { Workload.Retail.default_params with rows = 200; target_rows = 100 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  let r = Ctxmatch.Context_match.run ~config:Ctxmatch.Config.default ~infer ~source ~target () in
  let plan () =
    Mapping.Mapping_gen.plan ~source ~target ~matches:r.Ctxmatch.Context_match.matches ()
  in
  let keys_mined () =
    Obs.Metrics.counter_value (Obs.Metrics.snapshot ()) "mapping.keys_mined"
  in
  Obs.Recorder.disable ();
  Obs.Metrics.reset ();
  ignore (plan ());
  Alcotest.(check int) "nothing recorded with the recorder off" 0 (keys_mined ());
  Obs.Recorder.enable ();
  let p = Fun.protect ~finally:Obs.Recorder.disable plan in
  let views = List.filter Mapping.Relation.is_view p.Mapping.Mapping_gen.relations in
  Alcotest.(check bool) "some contextual views" true (views <> []);
  Alcotest.(check int) "k views + 1 base, each mined once"
    (List.length views + 1)
    (keys_mined ());
  Alcotest.(check int) "= relation count" (List.length p.Mapping.Mapping_gen.relations)
    (keys_mined ());
  Obs.Recorder.reset ();
  Obs.Metrics.reset ()

let suite =
  [
    Alcotest.test_case "plan relations" `Slow test_plan_relations;
    Alcotest.test_case "plan covers targets" `Slow test_plan_mappings_cover_targets;
    Alcotest.test_case "retail execution shapes" `Slow test_retail_execution_shapes;
    Alcotest.test_case "executed values from source" `Slow test_executed_values_from_source;
    Alcotest.test_case "skolem fills unmapped attrs" `Quick test_skolem_fills_unmapped_string_attrs;
    Alcotest.test_case "empty matches, empty outputs" `Quick test_empty_matches_empty_outputs;
    Alcotest.test_case "declared constraints respected" `Quick test_declared_constraints_respected;
    Alcotest.test_case "keys mined once per relation" `Slow test_keys_mined_once_per_relation;
  ]
