open Relational

type correspondence = {
  rel : string;
  rel_attr : string;
  tgt_attr : string;
  confidence : float;
}

type component = {
  component_relations : string list;
  component_joins : Association.join list;
  correspondences : correspondence list;
}

type target_mapping = {
  target_table : string;
  components : component list;
}

type plan = {
  relations : Relation.t list;
  base_constraints : Constraints.t list;
  derived : Propagation.derived list;
  joins : Association.join list;
  mappings : target_mapping list;
  target : Database.t;
}

let skolem attr known_values =
  let payload = String.concat "," (List.map Value.to_string known_values) in
  Value.String (Printf.sprintf "sk_%s_%08x" attr (Hashtbl.hash payload land 0xffffffff))

(* Relations named by the matches: every base source table, plus one view
   per distinct contextual source. *)
let relations_of_matches source matches =
  let bases = List.map Relation.base (Database.tables source) in
  let seen = Hashtbl.create 8 in
  let views =
    List.filter_map
      (fun (m : Matching.Schema_match.t) ->
        if (not (Matching.Schema_match.is_contextual m)) || Hashtbl.mem seen m.src_owner then
          None
        else begin
          Hashtbl.add seen m.src_owner ();
          match Database.table_opt source m.src_base with
          | None -> None
          | Some base_table ->
            Some (Relation.of_view (View.make ~name:m.src_owner base_table m.condition))
        end)
      matches
  in
  bases @ views

module Union_find = struct
  let find parent x =
    let rec go x = match Hashtbl.find_opt parent x with
      | Some p when p <> x -> go p
      | _ -> x
    in
    go x

  let union parent x y =
    let rx = find parent x and ry = find parent y in
    if rx <> ry then Hashtbl.replace parent rx ry

  let ensure parent x = if not (Hashtbl.mem parent x) then Hashtbl.replace parent x x
end

let plan ?(declared = []) ~source ~target ~matches () =
  Obs.Trace.with_span "mapping.plan" @@ fun () ->
  let relations = relations_of_matches source matches in
  (* Each relation's keys are mined once; FK mining, the view keys and
     contextual-FK mining below all read them from here. *)
  let mined = List.map (fun r -> (r, Mining.mine_keys r)) relations in
  let base_mined = List.filter (fun (r, _) -> not (Relation.is_view r)) mined in
  let base_constraints =
    declared
    @ List.concat_map (fun (_, keys) -> List.map (fun k -> Constraints.Key k) keys) base_mined
    @ List.map (fun f -> Constraints.Fk f) (Mining.mine_foreign_keys base_mined)
  in
  let derived = Propagation.derive ~relations ~base:base_constraints in
  (* Clio also mines keys directly on view samples; record them with a
     "mined" rule tag, skipping duplicates of the inferred ones. *)
  let mined_view_keys =
    List.concat_map
      (fun (rel, keys) ->
        if Relation.is_view rel then
          List.map (fun k -> { Propagation.constr = Constraints.Key k; rule = "mined" }) keys
        else [])
      mined
    |> List.filter (fun d ->
           not
             (List.exists
                (fun d' -> Constraints.equal d'.Propagation.constr d.Propagation.constr)
                derived))
  in
  let mined_view_cfks =
    Mining.mine_contextual_fks mined
    |> List.map (fun c -> { Propagation.constr = Constraints.Cfk c; rule = "mined" })
    |> List.filter (fun d ->
           not
             (List.exists
                (fun d' -> Constraints.equal d'.Propagation.constr d.Propagation.constr)
                derived))
  in
  let derived = derived @ mined_view_keys @ mined_view_cfks in
  let joins = Association.joins ~relations ~constraints:base_constraints ~derived in
  let mappings =
    List.map
      (fun tgt_table ->
        let tgt_name = Table.name tgt_table in
        let correspondences =
          List.filter_map
            (fun (m : Matching.Schema_match.t) ->
              if String.equal m.tgt_table tgt_name then
                Some
                  {
                    rel = m.src_owner;
                    rel_attr = m.src_attr;
                    tgt_attr = m.tgt_attr;
                    confidence = m.confidence;
                  }
              else None)
            matches
        in
        let rels =
          List.sort_uniq String.compare (List.map (fun c -> c.rel) correspondences)
        in
        (* connected components of the correspondence relations under the
           association joins *)
        let parent = Hashtbl.create 8 in
        List.iter (Union_find.ensure parent) rels;
        List.iter
          (fun (j : Association.join) ->
            if List.mem j.left rels && List.mem j.right rels then
              Union_find.union parent j.left j.right)
          joins;
        let groups = Hashtbl.create 8 in
        List.iter
          (fun rel ->
            let root = Union_find.find parent rel in
            let existing = try Hashtbl.find groups root with Not_found -> [] in
            Hashtbl.replace groups root (rel :: existing))
          rels;
        let components =
          Hashtbl.fold
            (fun _ members acc ->
              let members = List.sort String.compare members in
              let component_joins =
                List.filter
                  (fun (j : Association.join) ->
                    List.mem j.left members && List.mem j.right members)
                  joins
              in
              {
                component_relations = members;
                component_joins;
                correspondences =
                  List.filter (fun c -> List.mem c.rel members) correspondences;
              }
              :: acc)
            groups []
          |> List.sort (fun a b -> compare a.component_relations b.component_relations)
        in
        { target_table = tgt_name; components })
      (Database.tables target)
  in
  { relations; base_constraints; derived; joins; mappings; target }

let execute plan_t mapping =
  Obs.Trace.with_span "mapping.execute" @@ fun () ->
  let target_table = Database.table plan_t.target mapping.target_table in
  let target_schema = Table.schema target_table in
  let target_attrs = Schema.attributes target_schema in
  let rows = ref [] in
  List.iter
    (fun component ->
      match component.component_relations with
      | [] -> ()
      | members ->
        (* Start from the relation with the most correspondences so its
           rows anchor the outer joins. *)
        let count rel =
          List.length (List.filter (fun c -> String.equal c.rel rel) component.correspondences)
        in
        let start =
          List.fold_left
            (fun best rel ->
              match best with
              | Some b when count b >= count rel -> best
              | Some _ | None -> Some rel)
            None members
        in
        let start = Option.get start in
        let joined, _ =
          Executor.join_component plan_t.relations component.component_joins ~start
        in
        let joined_schema = Table.schema joined in
        Array.iter
          (fun row ->
            let mapped =
              Array.map
                (fun (attr : Attribute.t) ->
                  let corr =
                    (* highest-confidence correspondence feeding this
                       target attribute *)
                    List.fold_left
                      (fun best c ->
                        if not (String.equal c.tgt_attr attr.name) then best
                        else
                          match best with
                          | Some b when b.confidence >= c.confidence -> best
                          | Some _ | None -> Some c)
                      None component.correspondences
                  in
                  match corr with
                  | None -> Value.Null (* skolemised below *)
                  | Some c -> (
                    let qualified = Printf.sprintf "%s.%s" c.rel c.rel_attr in
                    match Schema.index_of_opt joined_schema qualified with
                    | Some i -> row.(i)
                    | None -> Value.Null))
                target_attrs
            in
            let known = Array.to_list mapped |> List.filter (fun v -> not (Value.is_null v)) in
            if known <> [] then begin
              (* Skolemise target attributes that no correspondence
                 feeds (paper §4.1(c)); attributes with a correspondence
                 but a null joined value stay null. *)
              let filled =
                Array.mapi
                  (fun i v ->
                    let attr = target_attrs.(i) in
                    let has_corr =
                      List.exists
                        (fun c -> String.equal c.tgt_attr attr.Attribute.name)
                        component.correspondences
                    in
                    if Value.is_null v && not has_corr then
                      skolem attr.Attribute.name known
                    else v)
                  mapped
              in
              rows := filled :: !rows
            end)
          (Table.rows joined))
    mapping.components;
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.incr "mapping.targets";
    Obs.Metrics.add "mapping.rows_emitted" (List.length !rows)
  end;
  Table.of_rows target_schema (Array.of_list (List.rev !rows))

let execute_all plan_t =
  let tables = List.map (fun m -> execute plan_t m) plan_t.mappings in
  Database.make (Database.name plan_t.target ^ "-mapped") tables

let execute_all_report plan_t =
  let report = Robust.Report.create () in
  let tables =
    List.map
      (fun m ->
        match execute plan_t m with
        | table -> table
        | exception e ->
          Robust.Report.record report ~table:m.target_table Robust.Error.Map
            (Printf.sprintf "mapping query failed, target left empty: %s"
               (Printexc.to_string e));
          let schema = Table.schema (Database.table plan_t.target m.target_table) in
          Table.of_rows schema [||])
      plan_t.mappings
  in
  ( Database.make (Database.name plan_t.target ^ "-mapped") tables,
    Robust.Report.issues report )
