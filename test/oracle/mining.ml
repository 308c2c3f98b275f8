open Relational
open Mapping

let is_unique t attrs =
  let indices = List.map (Schema.index_of (Table.schema t)) attrs in
  let seen = Hashtbl.create (Table.row_count t) in
  let duplicate = ref false in
  Array.iter
    (fun row ->
      if not !duplicate then begin
        let key = List.map (fun i -> Value.to_string row.(i)) indices in
        if Hashtbl.mem seen key then duplicate := true else Hashtbl.add seen key ()
      end)
    (Table.rows t);
  not !duplicate

let mine_keys ?(max_width = 2) rel =
  let table = Relation.table rel in
  if Table.row_count table = 0 then []
  else begin
    let attrs = Relation.attributes rel in
    let singles =
      List.filter (fun a -> is_unique table [ a ]) attrs
    in
    let keys = List.map (fun a -> { Constraints.rel = Relation.name rel; key_attrs = [ a ] }) singles in
    if max_width < 2 then keys
    else begin
      (* Minimal pairs: neither member is already a single-attribute key. *)
      let non_keys = List.filter (fun a -> not (List.mem a singles)) attrs in
      let rec pairs = function
        | [] -> []
        | a :: rest ->
          List.filter_map
            (fun b -> if is_unique table [ a; b ] then Some [ a; b ] else None)
            rest
          @ pairs rest
      in
      keys
      @ List.map
          (fun key_attrs -> { Constraints.rel = Relation.name rel; key_attrs })
          (pairs non_keys)
    end
  end

let single_keys rel = mine_keys ~max_width:1 rel

let mine_foreign_keys relations =
  let candidates =
    List.concat_map
      (fun referenced ->
        List.map (fun k -> (referenced, k)) (single_keys referenced))
      relations
  in
  List.concat_map
    (fun referencing ->
      let table = Relation.table referencing in
      if Table.row_count table = 0 then []
      else
        List.concat_map
          (fun attr ->
            let non_null = Table.non_null_column table attr in
            if Array.length non_null = 0 then []
            else
              List.filter_map
                (fun (referenced, (k : Constraints.key)) ->
                  if String.equal (Relation.name referenced) (Relation.name referencing) then
                    None
                  else begin
                    let fk =
                      {
                        Constraints.fk_rel = Relation.name referencing;
                        fk_attrs = [ attr ];
                        ref_rel = k.rel;
                        ref_attrs = k.key_attrs;
                      }
                    in
                    if Constraints.holds_fk table (Relation.table referenced) fk then Some fk
                    else None
                  end)
                candidates)
          (Relation.attributes referencing))
    relations

let view_selection_values rel =
  match Condition.selected_values (Relation.selection_condition rel) with
  | Some (attr, values) -> Some (attr, values)
  | None -> None

let mine_contextual_fks relations =
  let by_name = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace by_name (Relation.name r) r) relations;
  List.concat_map
    (fun view ->
      if not (Relation.is_view view) then []
      else
        match view_selection_values view with
        | None -> []
        | Some (ctx_attr, values) -> (
          match Hashtbl.find_opt by_name (Relation.base_name view) with
          | None -> []
          | Some base ->
            let base_keys = mine_keys base in
            (* keys of the base in which the selection attribute takes
               part: [X, a] with a = ctx_attr *)
            let with_ctx =
              List.filter_map
                (fun (k : Constraints.key) ->
                  if List.mem ctx_attr k.key_attrs then
                    Some (List.filter (fun a -> a <> ctx_attr) k.key_attrs)
                  else None)
                base_keys
            in
            List.concat_map
              (fun x_attrs ->
                if x_attrs = [] then []
                else
                  List.filter_map
                    (fun v ->
                      let cfk =
                        {
                          Constraints.cfk_rel = Relation.name view;
                          cfk_attrs = x_attrs;
                          ctx_attr;
                          ctx_value = v;
                          cfk_ref_rel = Relation.name base;
                          cfk_ref_attrs = x_attrs;
                          ref_ctx_attr = ctx_attr;
                        }
                      in
                      if
                        Constraints.holds_cfk (Relation.table view) (Relation.table base) cfk
                      then Some cfk
                      else None)
                    values)
              with_ctx))
    relations

let mine relations =
  List.concat_map (fun r -> List.map (fun k -> Constraints.Key k) (mine_keys r)) relations
  @ List.map (fun f -> Constraints.Fk f) (mine_foreign_keys relations)
  @ List.map (fun c -> Constraints.Cfk c) (mine_contextual_fks relations)
