open Relational

type outcome = Patched | Rebuilt of string

type t = {
  m_store : Store.t option;
  m_kernel : bool;
  m_churn : float;
  mutable m_target : Database.t;
  mutable m_prepared : Matching.Standard_match.prepared_target;
  mutable m_states : (string * Profiles.t) list;
  mutable m_generation : int;
  m_chain : (string, int) Hashtbl.t;
}

(* Patches a table's store delta chain may hold before it is folded
   back into a base snapshot. *)
let compact_after = 32

let create ?store ?(kernel = true) ?(churn = 0.25) ~target ~prepared () =
  {
    m_store = store;
    m_kernel = kernel;
    m_churn = churn;
    m_target = target;
    m_prepared = prepared;
    m_states = List.map (fun tbl -> (Table.name tbl, Profiles.create tbl)) (Database.tables target);
    m_generation = 0;
    m_chain = Hashtbl.create 8;
  }

let prepared t = t.m_prepared
let target t = t.m_target
let generation t = t.m_generation
let profiles t name = List.assoc_opt name t.m_states

let update t delta =
  let tname = Core.table delta in
  match List.assoc_opt tname t.m_states with
  | None -> Error (Printf.sprintf "unknown table %S" tname)
  | Some st -> (
    match Core.validate delta (Profiles.table st) with
    | Error m -> Error m
    | Ok () ->
      let old_table = Profiles.table st in
      let old_digest =
        match t.m_store with Some _ -> Some (Profiles.digest st) | None -> None
      in
      let old_rows = Table.row_count old_table in
      let deleted = Core.deleted_rows delta old_table in
      (* The injection point for delta chaos: fires before any state is
         touched, so an injected failure leaves the maintained state,
         the prepared artefact and the store exactly as they were. *)
      Robust.Fault.check Robust.Fault.Delta_apply
        ~key:(Printf.sprintf "%s:%d" tname (t.m_generation + 1));
      let finish_rebuild reason =
        let new_table = Core.apply delta old_table in
        let st' = Profiles.create new_table in
        let target = Database.replace_table t.m_target new_table in
        let prepared =
          Matching.Standard_match.prepare_target ?store:t.m_store ~kernel:t.m_kernel ~target ()
        in
        (* A cold rebuild wrote every artefact through under the new
           digest — the head state is a base snapshot again, so the old
           chain folds away. *)
        (match (t.m_store, old_digest) with
        | Some s, Some from_ ->
          ignore (Store.compact_deltas s ~table:tname ~data:from_);
          Hashtbl.replace t.m_chain tname 0
        | _ -> ());
        t.m_states <-
          List.map (fun (n, x) -> if String.equal n tname then (n, st') else (n, x)) t.m_states;
        t.m_target <- target;
        t.m_prepared <- prepared;
        t.m_generation <- t.m_generation + 1;
        if !Obs.Recorder.enabled then Obs.Metrics.incr "delta.rebuilds";
        Ok (Rebuilt reason)
      in
      let churn = Core.churn delta old_table in
      if churn > t.m_churn then
        finish_rebuild (Printf.sprintf "churn %.3f exceeds limit %.3f" churn t.m_churn)
      else begin
        Profiles.apply st delta;
        let patches = Profiles.column_patches st in
        let digest =
          match t.m_store with Some _ -> Some (Profiles.digest st) | None -> None
        in
        match
          Matching.Standard_match.patch_prepared ?store:t.m_store t.m_prepared
            ~table:(Profiles.table st) ?digest ~patches ()
        with
        | None ->
          (* the frozen dictionary cannot absorb the new grams; the cold
             path can ([finish_rebuild] reapplies the delta to the
             untouched old table) *)
          finish_rebuild "out-of-vocabulary grams"
        | Some prepared ->
          (match (t.m_store, old_digest, digest) with
          | Some s, Some from_, Some to_ ->
            Store.add_delta s
              {
                Store.dr_table = tname;
                dr_from = from_;
                dr_to = to_;
                dr_from_rows = old_rows;
                dr_appends = Core.appends delta;
                dr_deletes = Core.deletes delta;
                dr_deleted_rows = deleted;
              };
            let n = 1 + Option.value ~default:0 (Hashtbl.find_opt t.m_chain tname) in
            if n >= compact_after then begin
              ignore (Store.compact_deltas s ~table:tname ~data:to_);
              Hashtbl.replace t.m_chain tname 0
            end
            else Hashtbl.replace t.m_chain tname n
          | _ -> ());
          t.m_target <- Database.replace_table t.m_target (Profiles.table st);
          t.m_prepared <- prepared;
          t.m_generation <- t.m_generation + 1;
          if !Obs.Recorder.enabled then Obs.Metrics.incr "delta.patched";
          Ok Patched
      end)
