open Relational

type derived = {
  constr : Constraints.t;
  rule : string;
}

let subset xs ys = List.for_all (fun x -> List.mem x ys) xs

let simple_selection rel =
  match Relation.selection_condition rel with
  | Condition.Eq (attr, v) -> Some (attr, v)
  | Condition.True | Condition.In _ | Condition.And _ | Condition.Or _ | Condition.Not _ ->
    None

let keys_of base constraints =
  List.filter_map
    (function
      | Constraints.Key k when String.equal k.Constraints.rel base -> Some k
      | Constraints.Key _ | Constraints.Fk _ | Constraints.Cfk _ -> None)
    constraints

let fks_of base constraints =
  List.filter_map
    (function
      | Constraints.Fk f when String.equal f.Constraints.fk_rel base -> Some f
      | Constraints.Key _ | Constraints.Fk _ | Constraints.Cfk _ -> None)
    constraints

let derive ~relations ~base =
  let by_name = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace by_name (Relation.name r) r) relations;
  let results = ref [] in
  let emit rule constr =
    if not (List.exists (fun d -> Constraints.equal d.constr constr) !results) then
      results := { constr; rule } :: !results
  in
  List.iter
    (fun view ->
      if Relation.is_view view then begin
        let view_name = Relation.name view in
        let view_attrs = Relation.attributes view in
        let base_name = Relation.base_name view in
        let base_keys = keys_of base_name base in
        (* selection-propagation: keys fully visible in the view survive *)
        List.iter
          (fun (k : Constraints.key) ->
            if subset k.key_attrs view_attrs then
              emit "selection-propagation" (Constraints.key view_name k.key_attrs))
          base_keys;
        (* rules that need a simple selection a = v *)
        (match simple_selection view with
        | None -> ()
        | Some (a, v) ->
          List.iter
            (fun (k : Constraints.key) ->
              if List.mem a k.key_attrs then begin
                let x = List.filter (fun attr -> attr <> a) k.key_attrs in
                if x <> [] && subset x view_attrs then begin
                  (* contextual propagation: V[X] is a key of V *)
                  emit "contextual-propagation" (Constraints.key view_name x);
                  (* contextual constraint: V[X, a = v] ⊆ R[X, a] *)
                  emit "contextual-constraint"
                    (Constraints.cfk ~rel:view_name ~attrs:x ~ctx_attr:a ~ctx_value:v
                       ~ref_rel:base_name ~ref_attrs:x ~ref_ctx_attr:a)
                end
              end)
            base_keys);
        (* view-referencing: needs the selection to cover the whole
           domain of the selection attribute (checked on the sample) *)
        (match Condition.selected_values (Relation.selection_condition view) with
        | None -> ()
        | Some (a, selected) -> (
          match Hashtbl.find_opt by_name base_name with
          | None -> ()
          | Some base_rel ->
            let domain = Table.distinct_values (Relation.table base_rel) a in
            let covers =
              domain <> []
              && List.for_all (fun v -> List.exists (Value.equal v) selected) domain
            in
            if covers then
              List.iter
                (fun (k : Constraints.key) ->
                  if List.mem a k.key_attrs && subset k.key_attrs view_attrs then
                    emit "view-referencing"
                      (Constraints.fk base_name k.key_attrs view_name k.key_attrs))
                base_keys));
        (* fk-propagation *)
        List.iter
          (fun (f : Constraints.foreign_key) ->
            if subset f.fk_attrs view_attrs then
              emit "fk-propagation"
                (Constraints.fk view_name f.fk_attrs f.ref_rel f.ref_attrs))
          (fks_of base_name base)
      end)
    relations;
  List.rev !results
