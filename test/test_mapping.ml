(* SP queries, constraints, mining, propagation, association, executor. *)
open Relational
open Mapping

(* The student/project schema of Examples 4.1-4.5. *)
let project_table =
  let schema =
    Schema.make "project"
      [
        Attribute.string "name";
        Attribute.int "assign";
        Attribute.string "grade";
        Attribute.string "instructor";
      ]
  in
  let rows =
    List.concat_map
      (fun name ->
        List.init 3 (fun a ->
            [|
              Value.String name;
              Value.Int a;
              Value.String (Printf.sprintf "g%d" a);
              Value.String "prof";
            |]))
      [ "ann"; "bob"; "cat"; "dan" ]
  in
  Table.make schema rows

let student_table =
  let schema =
    Schema.make "student"
      [ Attribute.string "name"; Attribute.string "email"; Attribute.string "address" ]
  in
  Table.make schema
    (List.map
       (fun n -> [| Value.String n; Value.String (n ^ "@u.edu"); Value.String "addr" |])
       [ "ann"; "bob"; "cat"; "dan" ])

let v_assign i =
  Relation.of_query
    ~name:(Printf.sprintf "V%d" i)
    (Sp_query.select_all "project" (Condition.Eq ("assign", Value.Int i)))
    project_table

let test_sp_query_eval () =
  let q = Sp_query.select_some [ "name"; "grade" ] "project" (Condition.Eq ("assign", Value.Int 1)) in
  let result = Sp_query.eval q project_table in
  Alcotest.(check int) "4 students" 4 (Table.row_count result);
  Alcotest.(check int) "2 columns" 2 (Table.arity result)

let test_sp_query_wrong_table () =
  let q = Sp_query.select_all "other" Condition.True in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sp_query.eval q project_table);
       false
     with Invalid_argument _ -> true)

let test_sp_query_to_string () =
  Alcotest.(check string) "rendering" "select name from project where assign = 1"
    (Sp_query.to_string (Sp_query.select_some [ "name" ] "project" (Condition.Eq ("assign", Value.Int 1))));
  Alcotest.(check string) "no condition" "select * from project"
    (Sp_query.to_string (Sp_query.select_all "project" Condition.True))

let test_relation_lineage () =
  let v = v_assign 1 in
  Alcotest.(check bool) "is view" true (Relation.is_view v);
  Alcotest.(check string) "base" "project" (Relation.base_name v);
  Alcotest.(check int) "4 rows" 4 (Table.row_count (Relation.table v));
  let b = Relation.base project_table in
  Alcotest.(check bool) "base not view" false (Relation.is_view b);
  Alcotest.(check bool) "base condition true" true
    (Relation.selection_condition b = Condition.True)

let test_key_check () =
  Alcotest.(check bool) "(name, assign) key" true
    (Constraints.holds_key project_table { Constraints.rel = "project"; key_attrs = [ "name"; "assign" ] });
  Alcotest.(check bool) "name alone not key" false
    (Constraints.holds_key project_table { Constraints.rel = "project"; key_attrs = [ "name" ] })

let test_fk_check () =
  let fk =
    { Constraints.fk_rel = "project"; fk_attrs = [ "name" ]; ref_rel = "student"; ref_attrs = [ "name" ] }
  in
  Alcotest.(check bool) "project.name -> student.name" true
    (Constraints.holds_fk project_table student_table fk);
  let bad =
    { Constraints.fk_rel = "student"; fk_attrs = [ "email" ]; ref_rel = "project"; ref_attrs = [ "name" ] }
  in
  Alcotest.(check bool) "emails not in names" false
    (Constraints.holds_fk student_table project_table bad)

let test_cfk_check () =
  let v1 = v_assign 1 in
  let cfk =
    {
      Constraints.cfk_rel = "V1";
      cfk_attrs = [ "name" ];
      ctx_attr = "assign";
      ctx_value = Value.Int 1;
      cfk_ref_rel = "project";
      cfk_ref_attrs = [ "name" ];
      ref_ctx_attr = "assign";
    }
  in
  Alcotest.(check bool) "cfk holds" true
    (Constraints.holds_cfk (Relation.table v1) project_table cfk);
  let wrong = { cfk with ctx_value = Value.Int 2 } in
  (* V1's names also appear with assign = 2 in this dataset, so this
     still holds; check a value outside the domain instead *)
  let impossible = { cfk with ctx_value = Value.Int 99 } in
  Alcotest.(check bool) "impossible context fails" false
    (Constraints.holds_cfk (Relation.table v1) project_table impossible);
  ignore wrong

let test_mine_keys () =
  let keys = Mining.mine_keys (Relation.base student_table) in
  let has attrs = List.exists (fun (k : Constraints.key) -> k.key_attrs = attrs) keys in
  Alcotest.(check bool) "name" true (has [ "name" ]);
  Alcotest.(check bool) "email" true (has [ "email" ]);
  (* address is constant, never a key; and no pair containing a
     single-attribute key is reported *)
  Alcotest.(check bool) "no [name; email] pair" false (has [ "name"; "email" ]);
  let pkeys = Mining.mine_keys (Relation.base project_table) in
  Alcotest.(check bool) "(name, assign)" true
    (List.exists (fun (k : Constraints.key) -> k.Constraints.key_attrs = [ "name"; "assign" ]) pkeys)

(* relations paired with their mined keys, as Mapping_gen.plan hands
   them to FK and contextual-FK mining *)
let with_keys rels = List.map (fun r -> (r, Mining.mine_keys r)) rels

let test_mine_foreign_keys () =
  let fks =
    Mining.mine_foreign_keys
      (with_keys [ Relation.base project_table; Relation.base student_table ])
  in
  Alcotest.(check bool) "project.name subset student.name" true
    (List.exists
       (fun (f : Constraints.foreign_key) ->
         f.fk_rel = "project" && f.fk_attrs = [ "name" ] && f.ref_rel = "student"
         && f.ref_attrs = [ "name" ])
       fks)

let test_mine_contextual_fks () =
  let rels = [ Relation.base project_table; v_assign 1 ] in
  let cfks = Mining.mine_contextual_fks (with_keys rels) in
  Alcotest.(check bool) "V1[name, assign=1] into project" true
    (List.exists
       (fun (c : Constraints.contextual_fk) ->
         c.cfk_rel = "V1" && c.cfk_attrs = [ "name" ]
         && Value.equal c.ctx_value (Value.Int 1))
       cfks)

let propagation_setup () =
  let rels = [ Relation.base project_table; Relation.base student_table; v_assign 1; v_assign 2 ] in
  let base =
    [
      Constraints.key "project" [ "name"; "assign" ];
      Constraints.key "student" [ "name" ];
      Constraints.fk "project" [ "name" ] "student" [ "name" ];
    ]
  in
  (rels, base, Propagation.derive ~relations:rels ~base)

let test_propagation_contextual_key () =
  let _, _, derived = propagation_setup () in
  Alcotest.(check bool) "V1[name] is a key (contextual propagation)" true
    (List.exists
       (fun (d : Propagation.derived) ->
         d.rule = "contextual-propagation"
         && d.constr = Constraints.key "V1" [ "name" ])
       derived)

let test_propagation_contextual_constraint () =
  let _, _, derived = propagation_setup () in
  Alcotest.(check bool) "V1[name, assign=1] ⊆ project[name, assign]" true
    (List.exists
       (fun (d : Propagation.derived) ->
         d.rule = "contextual-constraint"
         &&
         match d.constr with
         | Constraints.Cfk c ->
           c.cfk_rel = "V1" && c.cfk_attrs = [ "name" ]
           && Value.equal c.ctx_value (Value.Int 1)
           && c.cfk_ref_rel = "project"
         | Constraints.Key _ | Constraints.Fk _ -> false)
       derived)

let test_propagation_fk () =
  let _, _, derived = propagation_setup () in
  Alcotest.(check bool) "V1[name] ⊆ student[name] (Example 4.2)" true
    (List.exists
       (fun (d : Propagation.derived) ->
         d.rule = "fk-propagation" && d.constr = Constraints.fk "V1" [ "name" ] "student" [ "name" ])
       derived)

let test_propagation_selection () =
  let _, _, derived = propagation_setup () in
  Alcotest.(check bool) "full key survives selection" true
    (List.exists
       (fun (d : Propagation.derived) ->
         d.rule = "selection-propagation"
         && d.constr = Constraints.key "V1" [ "name"; "assign" ])
       derived)

let test_propagation_view_referencing () =
  (* a view family covering the whole domain of assign: each gets the
     base-references-view fk only if its selection covers the domain *)
  let all = Relation.of_query ~name:"Vall"
      (Sp_query.select_all "project" (Condition.In ("assign", [ Value.Int 0; Value.Int 1; Value.Int 2 ])))
      project_table
  in
  let rels = [ Relation.base project_table; all ] in
  let base = [ Constraints.key "project" [ "name"; "assign" ] ] in
  let derived = Propagation.derive ~relations:rels ~base in
  Alcotest.(check bool) "view-referencing fires" true
    (List.exists (fun (d : Propagation.derived) -> d.rule = "view-referencing") derived)

let test_association_join1 () =
  let rels, base, derived = propagation_setup () in
  let joins = Association.joins ~relations:rels ~constraints:base ~derived in
  Alcotest.(check bool) "join1 between V1 and V2 on name" true
    (List.exists
       (fun (j : Association.join) ->
         j.rule = "join1" && j.on = [ ("name", "name") ]
         && ((j.left = "V1" && j.right = "V2") || (j.left = "V2" && j.right = "V1")))
       joins)

let test_association_join2 () =
  (* same condition, different projected attributes *)
  let vg = Relation.of_query ~name:"VG"
      (Sp_query.select_some [ "name"; "grade" ] "project" (Condition.Eq ("assign", Value.Int 1)))
      project_table
  in
  let vi = Relation.of_query ~name:"VI"
      (Sp_query.select_some [ "name"; "instructor" ] "project" (Condition.Eq ("assign", Value.Int 1)))
      project_table
  in
  let rels = [ Relation.base project_table; vg; vi ] in
  let base = [ Constraints.key "project" [ "name"; "assign" ] ] in
  let derived = Propagation.derive ~relations:rels ~base in
  let joins = Association.joins ~relations:rels ~constraints:base ~derived in
  Alcotest.(check bool) "join2 fires for same condition" true
    (List.exists (fun (j : Association.join) -> j.rule = "join2") joins)

let test_association_join2_blocks_different_conditions () =
  (* Example 4.5: V_i and U_j with i <> j must NOT be joined by join2 *)
  let vg = Relation.of_query ~name:"VG"
      (Sp_query.select_some [ "name"; "grade" ] "project" (Condition.Eq ("assign", Value.Int 1)))
      project_table
  in
  let ui = Relation.of_query ~name:"UI"
      (Sp_query.select_some [ "name"; "instructor" ] "project" (Condition.Eq ("assign", Value.Int 2)))
      project_table
  in
  let rels = [ Relation.base project_table; vg; ui ] in
  let base = [ Constraints.key "project" [ "name"; "assign" ] ] in
  let derived = Propagation.derive ~relations:rels ~base in
  let joins = Association.joins ~relations:rels ~constraints:base ~derived in
  Alcotest.(check bool) "no join2 across conditions" false
    (List.exists (fun (j : Association.join) -> j.rule = "join2") joins)

let test_association_join3 () =
  let rels, base, derived = propagation_setup () in
  let joins = Association.joins ~relations:rels ~constraints:base ~derived in
  Alcotest.(check bool) "join3 from V1 to project with assign = 1 restriction" true
    (List.exists
       (fun (j : Association.join) ->
         j.rule = "join3" && j.left = "V1" && j.right = "project"
         && j.right_restrict = [ ("assign", Value.Int 1) ])
       joins)

let test_executor_qualify () =
  let q = Executor.qualify (v_assign 1) in
  Alcotest.(check bool) "qualified names" true
    (Schema.mem (Table.schema q) "V1.name" && Schema.mem (Table.schema q) "V1.grade")

let test_executor_full_outer_join () =
  let mk name rows =
    Table.make (Schema.make name [ Attribute.string (name ^ ".k"); Attribute.int (name ^ ".v") ]) rows
  in
  let left = mk "L" [ [| Value.String "a"; Value.Int 1 |]; [| Value.String "b"; Value.Int 2 |] ] in
  let right = mk "R" [ [| Value.String "b"; Value.Int 20 |]; [| Value.String "c"; Value.Int 30 |] ] in
  let j =
    Executor.join left right ~on:[ ("L.k", "R.k") ] ~right_restrict:[] ~kind:Association.Full_outer
  in
  Alcotest.(check int) "3 rows: a, b, c" 3 (Table.row_count j);
  let j_left =
    Executor.join left right ~on:[ ("L.k", "R.k") ] ~right_restrict:[] ~kind:Association.Left_outer
  in
  Alcotest.(check int) "left outer: a, b" 2 (Table.row_count j_left)

let test_executor_null_keys_never_match () =
  let mk name rows =
    Table.make (Schema.make name [ Attribute.string (name ^ ".k") ]) rows
  in
  let left = mk "L" [ [| Value.Null |] ] in
  let right = mk "R" [ [| Value.Null |] ] in
  let j = Executor.join left right ~on:[ ("L.k", "R.k") ] ~right_restrict:[] ~kind:Association.Full_outer in
  (* null row on each side, no match: left padded + right padded *)
  Alcotest.(check int) "two unmatched rows" 2 (Table.row_count j)

let test_executor_right_restrict () =
  let mk name rows =
    Table.make (Schema.make name [ Attribute.string (name ^ ".k"); Attribute.int (name ^ ".v") ]) rows
  in
  let left = mk "L" [ [| Value.String "a"; Value.Int 1 |] ] in
  let right = mk "R" [ [| Value.String "a"; Value.Int 1 |]; [| Value.String "a"; Value.Int 2 |] ] in
  let j =
    Executor.join left right ~on:[ ("L.k", "R.k") ] ~right_restrict:[ ("R.v", Value.Int 2) ]
      ~kind:Association.Left_outer
  in
  Alcotest.(check int) "restricted to one right row" 1 (Table.row_count j)

let test_join_component_chains () =
  let rels = [ v_assign 0; v_assign 1; v_assign 2 ] in
  let join_on a b =
    {
      Association.left = a;
      right = b;
      on = [ ("name", "name") ];
      right_restrict = [];
      kind = Association.Full_outer;
      rule = "join1";
    }
  in
  let joined, used = Executor.join_component rels [ join_on "V0" "V1"; join_on "V1" "V2" ] ~start:"V0" in
  Alcotest.(check int) "all three used" 3 (List.length used);
  Alcotest.(check int) "4 students" 4 (Table.row_count joined);
  Alcotest.(check bool) "columns from all views" true
    (Schema.mem (Table.schema joined) "V0.grade"
    && Schema.mem (Table.schema joined) "V1.grade"
    && Schema.mem (Table.schema joined) "V2.grade")

let test_skolem_deterministic () =
  let a = Mapping_gen.skolem "email" [ Value.String "ann" ] in
  let b = Mapping_gen.skolem "email" [ Value.String "ann" ] in
  let c = Mapping_gen.skolem "email" [ Value.String "bob" ] in
  Alcotest.(check bool) "same inputs same value" true (Value.equal a b);
  Alcotest.(check bool) "different inputs differ" false (Value.equal a c);
  Alcotest.(check bool) "non-null" false (Value.is_null a)

let suite =
  [
    Alcotest.test_case "sp query eval" `Quick test_sp_query_eval;
    Alcotest.test_case "sp query wrong table" `Quick test_sp_query_wrong_table;
    Alcotest.test_case "sp query rendering" `Quick test_sp_query_to_string;
    Alcotest.test_case "relation lineage" `Quick test_relation_lineage;
    Alcotest.test_case "key check" `Quick test_key_check;
    Alcotest.test_case "fk check" `Quick test_fk_check;
    Alcotest.test_case "cfk check" `Quick test_cfk_check;
    Alcotest.test_case "mine keys" `Quick test_mine_keys;
    Alcotest.test_case "mine foreign keys" `Quick test_mine_foreign_keys;
    Alcotest.test_case "mine contextual fks" `Quick test_mine_contextual_fks;
    Alcotest.test_case "propagation: contextual key" `Quick test_propagation_contextual_key;
    Alcotest.test_case "propagation: contextual constraint" `Quick test_propagation_contextual_constraint;
    Alcotest.test_case "propagation: fk" `Quick test_propagation_fk;
    Alcotest.test_case "propagation: selection" `Quick test_propagation_selection;
    Alcotest.test_case "propagation: view-referencing" `Quick test_propagation_view_referencing;
    Alcotest.test_case "association join1" `Quick test_association_join1;
    Alcotest.test_case "association join2" `Quick test_association_join2;
    Alcotest.test_case "association join2 blocked" `Quick test_association_join2_blocks_different_conditions;
    Alcotest.test_case "association join3" `Quick test_association_join3;
    Alcotest.test_case "executor qualify" `Quick test_executor_qualify;
    Alcotest.test_case "executor full outer join" `Quick test_executor_full_outer_join;
    Alcotest.test_case "executor null keys" `Quick test_executor_null_keys_never_match;
    Alcotest.test_case "executor right restrict" `Quick test_executor_right_restrict;
    Alcotest.test_case "join_component chains" `Quick test_join_component_chains;
    Alcotest.test_case "skolem deterministic" `Quick test_skolem_deterministic;
  ]
