open Relational

type result = {
  matches : Matching.Schema_match.t list;
  standard : Matching.Schema_match.t list;
  families : View.family list;
  scored : Select_matches.scored_view list;
  candidate_view_count : int;
  elapsed_seconds : float;
  cache_hits : int;
  cache_misses : int;
  profile_builds : int;
  issues : Robust.Error.t list;
  pairs_scored : int;
  pairs_pruned : int;
}

(* Fault containment: every fan-out stage (StandardMatch build,
   candidate-view scoring) runs through the result-aware pool, so one
   failing unit quarantines only its source attribute / candidate view;
   the issue lands in the run's report and the rest of the pipeline sees
   a correspondingly smaller — but otherwise identical — input.  Issues
   are recorded from deterministic merge loops in index order, so both
   the partial result and the report are jobs-invariant (cooperative
   deadline expiry excepted, which is inherently timing-dependent). *)
let run ?(config = Config.default) ?store ?prepared ?deadline ~infer ~source ~target () =
  Robust.Fault.with_armed config.Config.faults @@ fun () ->
  Obs.Trace.with_span "context_match" @@ fun () ->
  if !Obs.Recorder.enabled then
    Obs.Metrics.set_gauge "pool.jobs" (float_of_int config.Config.jobs);
  let started = Robust.Deadline.now_ns () in
  (* An explicit [deadline] (the serve daemon's per-request admission
     deadline, which must keep counting queue wait) overrides the
     config-derived one. *)
  let deadline =
    match deadline with
    | Some d -> d
    | None -> (
      match config.Config.timeout_ms with
      | None -> Robust.Deadline.none
      | Some ms -> Robust.Deadline.after_ms ms)
  in
  let report = Robust.Report.create () in
  let jobs = config.Config.jobs in
  let pool = Runtime.Pool.get ~jobs in
  let rng = Stats.Rng.create config.Config.seed in
  let model =
    Matching.Standard_match.build ~gated:config.Config.gated_confidence
      ~matchers:config.Config.matchers ~jobs ~report ~deadline ?store
      ~kernel:config.Config.kernel ?prepared ?filter:config.Config.filter ~source ~target ()
  in
  (* Per-table chunks are prepended and concatenated once at the end:
     appending with [@] inside the loop would re-copy the accumulated
     prefix per table (quadratic in the table count). *)
  let rev_standard = ref [] in
  let rev_families = ref [] in
  let all_scored = ref [] in
  List.iter
    (fun source_table ->
      let src_name = Table.name source_table in
      (* Fig. 5 line 4: M := StandardMatch(R_S, R_T, tau) *)
      let m =
        Obs.Trace.with_span "standard_matches" (fun () ->
            Matching.Standard_match.matches_from model ~src_table:src_name ~tau:config.tau)
      in
      rev_standard := m :: !rev_standard;
      if !Obs.Recorder.enabled then Obs.Metrics.add "match.standard_matches" (List.length m);
      (* line 5: C := InferCandidateViews(R_S, M, EarlyDisjuncts) — a
         raising inference quarantines this source table's views only.
         The span is the paper's "view generation + condition
         inference" phase. *)
      let families =
        Obs.Trace.with_span "infer_views" @@ fun () ->
        match infer.Infer.infer (Stats.Rng.split rng) config ~source_table ~matches:m with
        | families -> families
        | exception e ->
          Robust.Report.record report ~table:src_name Robust.Error.Infer
            (Printf.sprintf "candidate-view inference skipped: %s" (Printexc.to_string e));
          []
      in
      rev_families := families :: !rev_families;
      if !Obs.Recorder.enabled then Obs.Metrics.add "match.families" (List.length families);
      (* lines 6-11: score every match of R_S under every candidate view *)
      let family_attr_of view =
        match
          List.find_opt (fun f -> List.memq view f.View.views) families
        with
        | Some f -> f.View.attribute
        | None -> ""
      in
      let views = Infer.views_of_families families in
      (* Each view is scored by exactly one task, and the merge below
         walks the results in view order: the scored list is identical
         to the sequential loop's whatever the scheduling.  A failing
         view is quarantined with an issue instead of killing the run. *)
      if !Obs.Recorder.enabled then Obs.Metrics.add "match.candidate_views" (List.length views);
      let scored_matches =
        Obs.Trace.with_span "score_views" (fun () ->
            Runtime.Pool.map_list_results pool ~deadline
              (fun view -> Matching.Standard_match.view_matches model view ~base_matches:m)
              views)
      in
      List.iter2
        (fun view outcome ->
          match outcome with
          | Error e ->
            Robust.Report.record report ~table:src_name ~attribute:(family_attr_of view)
              Robust.Error.Score
              (Printf.sprintf "candidate view %s skipped: %s" (View.name view)
                 (Printexc.to_string e))
          | Ok view_matches ->
            if view_matches <> [] then
              all_scored :=
                {
                  Select_matches.view;
                  family_attr = family_attr_of view;
                  view_matches;
                }
                :: !all_scored)
        views scored_matches)
    (Database.tables source);
  let standard = List.concat (List.rev !rev_standard) in
  let scored = List.rev !all_scored in
  (* line 12: SelectContextualMatches *)
  let matches =
    Obs.Trace.with_span "select_matches" @@ fun () ->
    match config.Config.select with
    | Config.Multi_table -> Select_matches.multi_table ~standard ~scored
    | Config.Qual_table ->
      Select_matches.qual_table ~jobs ~omega:config.Config.omega
        ~early_disjuncts:config.Config.early_disjuncts ~standard ~scored
        ~target_tables:(Database.table_names target) ()
    | Config.Clio_qual_table ->
      Select_matches.clio_qual_table ~jobs ~omega:config.Config.omega
        ~early_disjuncts:config.Config.early_disjuncts ~standard ~scored
        ~target_tables:(Database.table_names target) ()
  in
  let cache_hits, cache_misses = Matching.Standard_match.cache_stats model in
  (* One-shot export of the run's cache economics and containment
     outcome.  The lookup total is jobs-invariant; the hit/miss split
     can shift by same-key compute races (see Runtime.Memo). *)
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.add "cache.profile.hits" cache_hits;
    Obs.Metrics.add "cache.profile.misses" cache_misses;
    Obs.Metrics.add "cache.profile.lookups" (cache_hits + cache_misses);
    Obs.Metrics.add "match.selected" (List.length matches);
    Obs.Metrics.add "robust.issues" (Robust.Report.count report)
  end;
  {
    matches;
    standard;
    families = List.concat (List.rev !rev_families);
    scored;
    candidate_view_count = List.length scored;
    elapsed_seconds =
      Int64.to_float (Int64.sub (Robust.Deadline.now_ns ()) started) /. 1e9;
    cache_hits;
    cache_misses;
    profile_builds = Matching.Standard_match.profile_builds model;
    (* store quarantines (if any) ride along with the run's own issues,
       so callers see every degradation in one place *)
    issues =
      (Robust.Report.issues report
      @ match store with Some s -> Store.issues s | None -> []);
    pairs_scored = Matching.Standard_match.pairs_scored model;
    pairs_pruned = Matching.Standard_match.pairs_pruned model;
  }

let contextual_matches result =
  List.filter Matching.Schema_match.is_contextual result.matches

let infer_of algorithm ~target =
  match algorithm with
  | `Naive -> Naive_infer.infer
  | `Src_class -> Src_class_infer.infer
  | `Tgt_class -> Tgt_class_infer.infer target
  | `Cluster -> Cluster_infer.infer
