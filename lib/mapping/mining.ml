open Relational

let mine_keys ?(max_width = 2) rel =
  if !Obs.Recorder.enabled then Obs.Metrics.incr "mapping.keys_mined";
  let table = Relation.table rel in
  let rows = Table.row_count table in
  if rows = 0 then []
  else begin
    let key key_attrs = { Constraints.rel = Relation.name rel; key_attrs } in
    let coded = List.map (fun a -> (a, Table.column_codes table a)) (Relation.attributes rel) in
    let singles, non_keys = List.partition (fun (_, c) -> c.Table.card = rows) coded in
    let keys = List.map (fun (a, _) -> key [ a ]) singles in
    if max_width < 2 then keys
    else begin
      (* Minimal pairs: neither member is already a single-attribute key. *)
      let rec pairs = function
        | [] -> []
        | (a, ca) :: rest ->
          List.filter_map
            (fun (b, cb) -> if Table.codes_unique ~rows [ ca; cb ] then Some (key [ a; b ]) else None)
            rest
          @ pairs rest
      in
      keys @ pairs non_keys
    end
  end

let mine_foreign_keys mined =
  let candidates =
    List.concat_map
      (fun (referenced, keys) ->
        List.filter_map
          (fun (k : Constraints.key) ->
            match k.key_attrs with [ _ ] -> Some (referenced, k) | _ -> None)
          keys)
      mined
  in
  List.concat_map
    (fun (referencing, _) ->
      let table = Relation.table referencing in
      let others =
        List.filter
          (fun (referenced, _) ->
            not (String.equal (Relation.name referenced) (Relation.name referencing)))
          candidates
      in
      if Table.row_count table = 0 || others = [] then []
      else
        List.concat_map
          (fun attr ->
            let non_null = Table.non_null_column table attr in
            if Array.length non_null = 0 then []
            else
              List.filter_map
                (fun (referenced, (k : Constraints.key)) ->
                  let fk =
                    {
                      Constraints.fk_rel = Relation.name referencing;
                      fk_attrs = [ attr ];
                      ref_rel = k.rel;
                      ref_attrs = k.key_attrs;
                    }
                  in
                  if Constraints.holds_fk table (Relation.table referenced) fk then Some fk
                  else None)
                others)
          (Relation.attributes referencing))
    mined

let mine_contextual_fks mined =
  let by_name = Hashtbl.create 8 in
  List.iter (fun ((r, _) as entry) -> Hashtbl.replace by_name (Relation.name r) entry) mined;
  List.concat_map
    (fun (view, _) ->
      if not (Relation.is_view view) then []
      else
        match Condition.selected_values (Relation.selection_condition view) with
        | None -> []
        | Some (ctx_attr, values) -> (
          match Hashtbl.find_opt by_name (Relation.base_name view) with
          | None -> []
          | Some (base, base_keys) ->
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
    mined

let mine relations =
  let mined = List.map (fun r -> (r, mine_keys r)) relations in
  List.concat_map (fun (_, keys) -> List.map (fun k -> Constraints.Key k) keys) mined
  @ List.map (fun f -> Constraints.Fk f) (mine_foreign_keys mined)
  @ List.map (fun c -> Constraints.Cfk c) (mine_contextual_fks mined)
