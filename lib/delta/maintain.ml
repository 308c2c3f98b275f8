open Relational

type outcome = Patched | Rebuilt of string

type t = {
  m_store : Store.t option;
  m_churn : float;
  mutable m_target : Database.t;
  mutable m_prepared : Matching.Standard_match.prepared_target;
  mutable m_states : (string * Profiles.t) list;
  mutable m_generation : int;
}

(* [kernel] has no effect; it stays in the signature for callers that
   still pass it. *)
let create ?store ?kernel:(_ : bool option) ?(churn = 0.25) ~target ~prepared () =
  {
    m_store = store;
    m_churn = churn;
    m_target = target;
    m_prepared = prepared;
    m_states = List.map (fun tbl -> (Table.name tbl, Profiles.create tbl)) (Database.tables target);
    m_generation = 0;
  }

let prepared t = t.m_prepared
let target t = t.m_target
let generation t = t.m_generation

let update t delta =
  let tname = Core.table delta in
  match List.assoc_opt tname t.m_states with
  | None -> Error (Printf.sprintf "unknown table %S" tname)
  | Some st -> (
    match Core.validate delta (Profiles.table st) with
    | Error m -> Error m
    | Ok () ->
      let old_table = Profiles.table st in
      (* The injection point for delta chaos: fires before any state is
         touched, so an injected failure leaves the maintained state,
         the prepared artefact and the store exactly as they were. *)
      Robust.Fault.check Robust.Fault.Delta_apply
        ~key:(Printf.sprintf "%s:%d" tname (t.m_generation + 1));
      let set_state st' =
        t.m_states <-
          List.map (fun (n, x) -> if String.equal n tname then (n, st') else (n, x)) t.m_states
      in
      let commit target prepared =
        t.m_target <- target;
        t.m_prepared <- prepared;
        t.m_generation <- t.m_generation + 1
      in
      let churn = Core.churn delta old_table in
      if churn > t.m_churn then begin
        let new_table = Core.apply delta old_table in
        let target = Database.replace_table t.m_target new_table in
        let prepared = Matching.Standard_match.prepare_target ?store:t.m_store ~target () in
        set_state (Profiles.create new_table);
        commit target prepared;
        if !Obs.Recorder.enabled then Obs.Metrics.incr "delta.rebuilds";
        Ok (Rebuilt (Printf.sprintf "churn %.3f exceeds limit %.3f" churn t.m_churn))
      end
      else begin
        (* [Profiles.apply] moves [st] to the new rows in place.  Should
           it or the patch raise, the table's state goes back to the old
           rows, so a retry of the same delta applies it once. *)
        try
          Profiles.apply st delta;
          let prepared =
            Matching.Standard_match.patch_prepared t.m_prepared ~table:(Profiles.table st)
              ~patches:(Profiles.column_patches st) ()
          in
          commit (Database.replace_table t.m_target (Profiles.table st)) prepared;
          if !Obs.Recorder.enabled then Obs.Metrics.incr "delta.patched";
          Ok Patched
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          set_state (Profiles.create old_table);
          Printexc.raise_with_backtrace e bt
      end)
