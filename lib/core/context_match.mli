(** Algorithm ContextMatch (paper Fig. 5), end to end:

    for each source table
      M  := StandardMatch(R_S, R_T, tau)
      C  := InferCandidateViews(R_S, M, EarlyDisjuncts)
      RL := ScoreMatch of every M-match re-evaluated under every view
    return SelectContextualMatches(M, RL, omega, EarlyDisjuncts) *)

open Relational

type result = {
  matches : Matching.Schema_match.t list;  (** selected contextual + standard matches *)
  standard : Matching.Schema_match.t list;  (** accepted standard matches (all tables) *)
  families : View.family list;  (** candidate view families generated *)
  scored : Select_matches.scored_view list;  (** RL grouped per view *)
  candidate_view_count : int;
  elapsed_seconds : float;
  cache_hits : int;
      (** profile-cache lookups answered from the cache: the source
          cache's, plus the target cache's when the run prepared the
          target itself (no [prepared]) *)
  cache_misses : int;  (** lookups of the same caches that had to compute *)
  profile_builds : int;
      (** column artefacts of the same caches computed from raw values:
          lookups that missed both the in-memory caches and the
          persistent store.  At most [cache_misses]; 0 on a fully warm
          [store] run over unchanged inputs *)
  issues : Robust.Error.t list;
      (** units of work quarantined during this run (skipped source
          attributes, candidate views, inference failures, deadline
          expiries); empty on a clean run.  The surviving [matches] are
          exactly what a run without the quarantined units would have
          produced — see DESIGN.md, "Failure semantics" *)
  pairs_scored : int;
      (** (matcher, source attr, target col) scoring events performed;
          jobs-invariant *)
  pairs_pruned : int;
      (** scoring events skipped by [config.filter] (0 without a
          filter); jobs-invariant *)
}

val run :
  ?config:Config.t ->
  ?store:Store.t ->
  ?prepared:Matching.Standard_match.prepared_target ->
  ?deadline:Robust.Deadline.t ->
  infer:Infer.t ->
  source:Database.t ->
  target:Database.t ->
  unit ->
  result
(** Runs with [config.faults] armed (restored on exit) and, when
    [config.timeout_ms] is set, under a cooperative deadline checked
    between scoring units.  Recoverable per-unit failures degrade the
    result and are listed in [issues] instead of raising.

    With a [store], column artefacts are served from / written through
    to the persistent store (see {!Matching.Standard_match.build});
    store quarantine issues are appended to [issues].  The caller still
    owns {!Store.flush}.

    With [prepared] (a registered target in the serve daemon), the
    target-side preparation is skipped and the shared artefact is
    consumed; the result is bit-identical to an inline run over the
    same target.  An explicit [deadline] overrides the one derived from
    [config.timeout_ms] — the daemon threads its per-request admission
    deadline through here so queue wait counts against the request
    budget. *)

val contextual_matches : result -> Matching.Schema_match.t list
(** Only the selected matches that originate from views (the edges the
    evaluation of §5 scores). *)

val infer_of :
  [ `Naive | `Src_class | `Tgt_class | `Cluster ] -> target:Database.t -> Infer.t
(** Convenience constructor for the paper's view-inference algorithms
    (including the clustering-based variant the paper evaluated but
    omitted for brevity, §3.2.2). *)
