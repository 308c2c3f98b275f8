open Relational

let quote_ident name =
  let buf = Buffer.create (String.length name + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c -> if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
    name;
  Buffer.add_char buf '"';
  Buffer.contents buf

let literal = function
  | Value.Null -> "NULL"
  | Value.Int i -> string_of_int i
  | Value.Float f ->
    (* shortest of the two precisions that reads back as the same float,
       so a condition selects in SQL the rows the executor selects *)
    let short = Printf.sprintf "%.15g" f in
    if float_of_string short = f then short else Printf.sprintf "%.17g" f
  | Value.Bool b -> if b then "TRUE" else "FALSE"
  | Value.String s ->
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '\'';
    String.iter
      (fun c -> if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '\'';
    Buffer.contents buf

let rec condition = function
  | Condition.True -> "TRUE"
  | Condition.Eq (attr, v) -> Printf.sprintf "%s = %s" (quote_ident attr) (literal v)
  | Condition.In (attr, vs) ->
    Printf.sprintf "%s IN (%s)" (quote_ident attr)
      (String.concat ", " (List.map literal vs))
  | Condition.And (a, b) -> Printf.sprintf "(%s AND %s)" (condition a) (condition b)
  | Condition.Or (a, b) -> Printf.sprintf "(%s OR %s)" (condition a) (condition b)
  | Condition.Not a -> Printf.sprintf "NOT (%s)" (condition a)

let view_definition rel =
  if not (Relation.is_view rel) then None
  else begin
    let base = Relation.base_name rel in
    let select =
      match Relation.selection_condition rel with
      | Condition.True -> Printf.sprintf "SELECT * FROM %s" (quote_ident base)
      | c -> Printf.sprintf "SELECT * FROM %s WHERE %s" (quote_ident base) (condition c)
    in
    Some (Printf.sprintf "CREATE VIEW %s AS %s;" (quote_ident (Relation.name rel)) select)
  end

let qualified rel attr = Printf.sprintf "%s.%s" (quote_ident rel) (quote_ident attr)

let component_select (plan : Mapping_gen.plan) mapping (component : Mapping_gen.component) =
  let target_table = Database.table plan.Mapping_gen.target mapping.Mapping_gen.target_table in
  let target_attrs = Schema.attribute_names (Table.schema target_table) in
  let best_for attr =
    List.fold_left
      (fun best (c : Mapping_gen.correspondence) ->
        if not (String.equal c.tgt_attr attr) then best
        else
          match best with
          | Some (b : Mapping_gen.correspondence) when b.confidence >= c.confidence -> best
          | Some _ | None -> Some c)
      None component.Mapping_gen.correspondences
  in
  let projections =
    List.map
      (fun attr ->
        match best_for attr with
        | Some c -> Printf.sprintf "%s AS %s" (qualified c.rel c.rel_attr) (quote_ident attr)
        | None ->
          (* Skolem placeholder: unmapped non-null target attribute *)
          Printf.sprintf "%s AS %s"
            (literal (Value.String (Printf.sprintf "sk_%s(...)" attr)))
            (quote_ident attr))
      target_attrs
  in
  match component.Mapping_gen.component_relations with
  | [] -> "SELECT NULL WHERE FALSE"
  | first :: _ ->
    (* anchor on the relation with the most correspondences, mirroring
       the executor's choice *)
    let count rel =
      List.length
        (List.filter
           (fun (c : Mapping_gen.correspondence) -> String.equal c.rel rel)
           component.Mapping_gen.correspondences)
    in
    let start =
      List.fold_left
        (fun best rel -> if count rel > count best then rel else best)
        first component.Mapping_gen.component_relations
    in
    let joined = ref [ start ] in
    let join_clauses = ref [] in
    let rec grow () =
      let usable =
        List.find_opt
          (fun (j : Association.join) ->
            (List.mem j.left !joined && not (List.mem j.right !joined))
            || List.mem j.right !joined
               && (not (List.mem j.left !joined))
               && j.right_restrict = [])
          component.Mapping_gen.component_joins
      in
      match usable with
      | None -> ()
      | Some j ->
        let forward = List.mem j.left !joined in
        let fresh = if forward then j.right else j.left in
        let kind =
          match j.kind with Association.Full_outer -> "FULL OUTER JOIN" | Left_outer -> "LEFT OUTER JOIN"
        in
        let on =
          List.map
            (fun (a, b) ->
              if forward then Printf.sprintf "%s = %s" (qualified j.left a) (qualified j.right b)
              else Printf.sprintf "%s = %s" (qualified j.right b) (qualified j.left a))
            j.on
        in
        let restrict =
          if forward then
            List.map
              (fun (attr, v) -> Printf.sprintf "%s = %s" (qualified j.right attr) (literal v))
              j.right_restrict
          else []
        in
        join_clauses :=
          Printf.sprintf "  %s %s ON %s" kind (quote_ident fresh)
            (String.concat " AND " (on @ restrict))
          :: !join_clauses;
        joined := fresh :: !joined;
        grow ()
    in
    grow ();
    Printf.sprintf "SELECT %s\nFROM %s%s"
      (String.concat ",\n       " projections)
      (quote_ident start)
      (match List.rev !join_clauses with
      | [] -> ""
      | clauses -> "\n" ^ String.concat "\n" clauses)

let target_insert plan (mapping : Mapping_gen.target_mapping) =
  let non_empty =
    List.filter
      (fun (c : Mapping_gen.component) -> c.Mapping_gen.correspondences <> [])
      mapping.Mapping_gen.components
  in
  if non_empty = [] then
    Printf.sprintf "-- no matches found for target %s" mapping.Mapping_gen.target_table
  else begin
    let selects = List.map (component_select plan mapping) non_empty in
    Printf.sprintf "INSERT INTO %s\n%s;"
      (quote_ident mapping.Mapping_gen.target_table)
      (String.concat "\nUNION ALL\n" selects)
  end

let script (plan : Mapping_gen.plan) =
  let views = List.filter_map view_definition plan.Mapping_gen.relations in
  let inserts = List.map (target_insert plan) plan.Mapping_gen.mappings in
  String.concat "\n\n" (views @ inserts) ^ "\n"
