open Relational

type stage = {
  stage_index : int;
  result : Context_match.result;
}

let restrict_infer (infer : Infer.t) forbidden =
  {
    infer with
    Infer.infer =
      (fun ?coded rng config ~source_table ~matches ->
        let families = infer.Infer.infer ?coded rng config ~source_table ~matches in
        let bad =
          try Hashtbl.find forbidden (Table.name source_table) with Not_found -> []
        in
        List.filter (fun f -> not (List.mem f.View.attribute bad)) families);
  }

(* Materialise the distinct views used by the selected contextual
   matches of a stage; returns the new source database plus the mapping
   materialised-table-name -> (original base, accumulated condition). *)
let materialize_stage (matches : Matching.Schema_match.t list) origin_of =
  let seen = Hashtbl.create 8 in
  let lineage = Hashtbl.create 8 in
  let tables = ref [] in
  List.iter
    (fun (m : Matching.Schema_match.t) ->
      if Matching.Schema_match.is_contextual m && not (Hashtbl.mem seen m.src_owner) then begin
        Hashtbl.add seen m.src_owner ();
        match origin_of m with
        | None -> ()
        | Some (base_table, base_name, prior_condition) ->
          let condition = Condition.conjoin prior_condition m.condition in
          let view = View.make ~name:m.src_owner base_table m.condition in
          if View.row_count view > 0 then begin
            Hashtbl.add lineage m.src_owner (base_name, condition);
            tables := View.materialize view :: !tables
          end
      end)
    matches;
  (List.rev !tables, lineage)

let run ?(config = Config.default) ?(stages = 2) ~algorithm ~source ~target () =
  let infer = Context_match.infer_of algorithm ~target in
  let stage1 = Context_match.run ~config ~infer ~source ~target () in
  let best = Hashtbl.create 32 in
  let edge_key (m : Matching.Schema_match.t) = (m.src_base, m.src_attr, m.tgt_table, m.tgt_attr) in
  List.iter (fun m -> Hashtbl.replace best (edge_key m) m) stage1.Context_match.matches;
  let all_stages = ref [ { stage_index = 1; result = stage1 } ] in
  let rec iterate stage_index prev_matches prev_db lineage =
    if stage_index > stages then ()
    else begin
      let origin_of (m : Matching.Schema_match.t) =
        match Database.table_opt prev_db m.src_base with
        | None -> None
        | Some tbl ->
          let base_name, prior =
            match Hashtbl.find_opt lineage m.src_base with
            | Some (base, cond) -> (base, cond)
            | None -> (m.src_base, Condition.True)
          in
          Some (tbl, base_name, prior)
      in
      let tables, next_lineage = materialize_stage prev_matches origin_of in
      if tables = [] then ()
      else begin
        let next_db = Database.make (Database.name prev_db ^ "+views") tables in
        (* Forbid re-partitioning on attributes already fixed by the
           accumulated condition of each materialised view. *)
        let forbidden = Hashtbl.create 8 in
        Hashtbl.iter
          (fun view_name (_, condition) ->
            Hashtbl.replace forbidden view_name (Condition.attributes condition))
          next_lineage;
        let restricted = restrict_infer infer forbidden in
        (* Later stages refine an already-specialised view, so the
           remaining per-match improvements are intrinsically smaller —
           typically a single attribute's confidence delta; quarter the
           improvement threshold per stage. *)
        let stage_config =
          Config.with_omega config
            (config.Config.omega /. Float.pow 4.0 (float_of_int (stage_index - 1)))
        in
        (* Each stage's run builds its own StandardMatch model — and
           with it fresh condition-attribute partitions over the
           materialised stage tables, so id-space view scoring applies
           to every conjunctive stage, not just the first. *)
        let result =
          Context_match.run ~config:stage_config ~infer:restricted ~source:next_db ~target ()
        in
        all_stages := { stage_index; result } :: !all_stages;
        (* Compose conditions and fold improvements into [best]. *)
        let composed =
          List.filter_map
            (fun (m : Matching.Schema_match.t) ->
              if not (Matching.Schema_match.is_contextual m) then None
              else
                match Hashtbl.find_opt next_lineage m.src_base with
                | None -> None
                | Some (base_name, accumulated) ->
                  Some
                    {
                      m with
                      Matching.Schema_match.src_base = base_name;
                      condition = Condition.normalize (Condition.conjoin accumulated m.condition);
                    })
            result.Context_match.matches
        in
        List.iter
          (fun (m : Matching.Schema_match.t) ->
            match Hashtbl.find_opt best (edge_key m) with
            | Some (existing : Matching.Schema_match.t)
              when existing.confidence >= m.confidence -> ()
            | Some _ | None -> Hashtbl.replace best (edge_key m) m)
          composed;
        iterate (stage_index + 1) result.Context_match.matches next_db next_lineage
      end
    end
  in
  iterate 2 stage1.Context_match.matches source (Hashtbl.create 1);
  let final =
    Hashtbl.fold (fun _ m acc -> m :: acc) best []
    |> List.sort (fun (a : Matching.Schema_match.t) b ->
           compare
             (a.tgt_table, a.tgt_attr, a.src_base, a.src_attr)
             (b.tgt_table, b.tgt_attr, b.src_base, b.src_attr))
  in
  (List.rev !all_stages, final)
