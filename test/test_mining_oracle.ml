(* Differential tests of constraint mining against the string-keyed
   reference in test/oracle: Mapping.Mining mines each relation's keys
   once over dense column codes, and must return the reference's lists
   in the reference's order. *)
open Relational
open Mapping

(* Cells chosen to collide or not under Value.to_string: Int 1 and
   Float 1. print differently, 1.0000001 and 1.0000002 both print "1"
   (as do Int 1 and String "1"), and strings carry list and quote
   punctuation. *)
let cells =
  [|
    Value.Null;
    Value.Int 1;
    Value.Float 1.;
    Value.Float 1.0000001;
    Value.Float 1.0000002;
    Value.String "1";
    Value.String "1.0";
    Value.Int 2;
    Value.String "a,b";
    Value.String "a";
    Value.String "o'neil";
    Value.String "'";
    Value.String "";
    Value.Bool true;
    Value.String "true";
  |]

let attrs = [ "a"; "b"; "c"; "d" ]

(* One column of [rows] cells: constant, drawn from [cells] (nulls and
   repeats included), unique, unique except for one repeat, or one half
   of a pair key (row i as (i / k, i mod k)). *)
let column_gen ~k rows =
  let open QCheck.Gen in
  frequency
    [
      (1, oneofa cells >|= fun v -> Array.make rows v);
      (3, array_repeat rows (oneofa cells));
      (1, return (Array.init rows (fun i -> Value.Int i)));
      ( 1,
        int_range 0 (max 0 (rows - 1)) >|= fun j ->
        Array.init rows (fun i -> Value.String (Printf.sprintf "k%d" (if i = j then 0 else i)))
      );
      (2, return (Array.init rows (fun i -> Value.String (Printf.sprintf "g%d" (i / k)))));
      (2, return (Array.init rows (fun i -> Value.Int (i mod k))));
    ]

(* A table over [attrs] with 0-12 rows, sometimes with duplicated rows. *)
let table_gen name =
  let open QCheck.Gen in
  int_range 0 12 >>= fun rows ->
  int_range 2 4 >>= fun k ->
  list_repeat (List.length attrs) (column_gen ~k rows) >>= fun columns ->
  frequency [ (3, return []); (1, list_size (int_range 1 2) (int_range 0 (max 0 (rows - 1)))) ]
  >|= fun dups ->
  let rows = List.init rows (fun i -> Array.of_list (List.map (fun col -> col.(i)) columns)) in
  let rows = if rows = [] then rows else rows @ List.map (List.nth rows) dups in
  Table.make (Schema.make name (List.map Attribute.string attrs)) rows

(* A selection on one attribute, mostly on values the base holds. *)
let condition_gen table =
  let open QCheck.Gen in
  oneofl attrs >>= fun attr ->
  let column = Table.column table attr in
  let value =
    if Array.length column = 0 then oneofa cells
    else frequency [ (3, oneofa column); (1, oneofa cells) ]
  in
  oneof
    [
      (value >|= fun v -> Condition.Eq (attr, v));
      (list_size (int_range 1 3) value >|= fun vs -> Condition.In (attr, vs));
    ]

(* Base relations R and S, and up to three views over them. *)
let relations_gen =
  let open QCheck.Gen in
  pair (table_gen "R") (table_gen "S") >>= fun (r, s) ->
  list_size (int_range 0 3)
    (bool >>= fun on_r ->
     let base = if on_r then r else s in
     condition_gen base >|= fun condition -> (base, condition))
  >|= fun views ->
  [ Relation.base r; Relation.base s ]
  @ List.mapi
      (fun i (base, condition) ->
        let name = Printf.sprintf "V%d" i in
        Relation.of_view ~name (View.make ~name base condition))
      views

let print_relations rels =
  String.concat "\n"
    (List.map (fun r -> Format.asprintf "%a: %a" Relation.pp r Table.pp (Relation.table r)) rels)

let arbitrary_relations = QCheck.make ~print:print_relations relations_gen

let qcheck_mining_matches_oracle =
  QCheck.Test.make ~name:"mining = string-keyed oracle" ~count:400 arbitrary_relations
    (fun rels ->
      let mined = List.map (fun r -> (r, Mining.mine_keys r)) rels in
      List.for_all
        (fun r ->
          Mining.mine_keys r = Oracle.Mining.mine_keys r
          && Mining.mine_keys ~max_width:1 r = Oracle.Mining.mine_keys ~max_width:1 r)
        rels
      && Mining.mine_foreign_keys mined = Oracle.Mining.mine_foreign_keys rels
      && Mining.mine_contextual_fks mined = Oracle.Mining.mine_contextual_fks rels
      && Mining.mine rels = Oracle.Mining.mine rels)

let arbitrary_table_and_attrs =
  let gen =
    QCheck.Gen.(
      pair (table_gen "R") (list_size (int_range 1 3) (oneofl attrs)))
  in
  QCheck.make
    ~print:(fun (t, attrs) ->
      Format.asprintf "%a on [%s]" Table.pp t (String.concat "; " attrs))
    gen

let qcheck_is_unique_matches_oracle =
  QCheck.Test.make ~name:"is_unique = string-keyed oracle" ~count:1000 arbitrary_table_and_attrs
    (fun (t, attrs) -> Table.is_unique t attrs = Oracle.Mining.is_unique t attrs)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_mining_matches_oracle;
    QCheck_alcotest.to_alcotest qcheck_is_unique_matches_oracle;
  ]
