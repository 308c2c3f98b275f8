(** StandardMatch (paper §2.3 / Fig. 5 line 4) and ScoreMatch (line 10).

    [build] scores every (source attribute, target attribute) pair with
    every applicable matcher, records per-(source attribute, matcher)
    raw-score distributions, and combines normalised confidences.  The
    q-gram matcher scores a base pair with the merge join of
    {!Textsim.Profile.cosine}; there is no second q-gram scorer.

    [score_view] re-evaluates one accepted match with the source column
    restricted to a view's rows, converting the new raw scores with the
    *base table's* score distributions so that view confidences are
    comparable with base confidences (§3, strawman discussion). *)

open Relational

type model

type filter = { k : int; tau : float }
(** Q-gram top-k candidate filter: each textual source attribute keeps
    at most [k] textual target columns with raw q-gram cosine >= [tau],
    and the {!Matchers.filterable} matchers score their textual pairs
    only against those survivors.  Retrieval is exact and pairwise: the
    source column's profile is scored against every textual target
    column, survivors are ordered by score descending, then target
    order, so a tie at the rank-[k] boundary keeps the earlier target
    column. *)

val filter_of_string : string -> (filter option, string) result
(** Parse a plan spec: [default] or [legacy] (no filter), [filter]
    (K = 16, TAU = 0), [filter:K] or [filter:K,TAU] with K > 0 and TAU
    in [0,1].  The error message names the accepted grammar. *)

val filter_to_string : filter option -> string
(** Inverse of {!filter_of_string}: [default], [filter:K], or
    [filter:K,TAU] when TAU is non-zero, with TAU printed so that it
    reads back as the same float. *)

type prepared_target
(** Immutable target-side artefact of {!build}: warmed target columns,
    their (table, attr) index and the target profile cache.  Prepared
    once (registration in the serve daemon,
    or inline by {!build} itself), then shared read-only across any
    number of builds — a build consuming a prepared target is
    bit-identical to one preparing the same target inline. *)

val prepare_target :
  ?store:Store.t ->
  ?kernel:bool ->
  ?fail_fast:bool ->
  target:Database.t ->
  unit ->
  prepared_target
(** Warm every target column and capture the result as a shareable
    artefact.  [kernel] has no effect (it is accepted for callers that
    still pass it).  With a [store], target artefacts are served
    from / written through to it.  A target column whose warm-up raises
    is quarantined into {!prepared_issues} — unless [fail_fast] (default
    false), which re-raises instead (the legacy no-report contract of
    {!build}). *)

type column_patch = {
  cp_attr : string;
  cp_profile : Textsim.Profile.t option;
  cp_distinct : string list option;
  cp_words : string list option;
}
(** Delta-maintained replacement artefacts for one attribute of a
    patched table; [None] fields are recomputed on warm (numeric
    summaries — the recompute runs the cold path's exact fold). *)

val patch_prepared :
  prepared_target ->
  table:Table.t ->
  patches:column_patch list ->
  unit ->
  prepared_target
(** Rebuild a prepared target around one replaced [table] in O(delta):
    the maintained artefacts in [patches] are seeded into a fresh target cache under the keys the
    new columns read (and, when the artefact was prepared with a
    store, written through to that store under the new rows'
    {!Store.table_digest}), and columns of unchanged tables are reused
    verbatim.  Column order and the original warm
    quarantine ({!prepared_issues}) are preserved, so a build over the
    patched artefact is bit-identical to one over a cold
    {!prepare_target} of the same database, whatever grams the new rows
    hold.  The input artefact is never mutated. *)

val prepared_target_db : prepared_target -> Database.t
val prepared_columns : prepared_target -> int
(** Surviving (warmed) target columns. *)

val prepared_issues : prepared_target -> Robust.Error.t list
(** Target columns quarantined while warming, in column order; replayed
    into the report of every build that consumes this artefact. *)

val build :
  ?gated:bool ->
  ?matchers:Matcher.t list ->
  ?jobs:int ->
  ?report:Robust.Report.t ->
  ?deadline:Robust.Deadline.t ->
  ?store:Store.t ->
  ?kernel:bool ->
  ?prepared:prepared_target ->
  ?filter:filter ->
  source:Database.t ->
  target:Database.t ->
  unit ->
  model
(** Default matchers: {!Matchers.default_suite}.  [gated] (default true)
    selects {!Normalize.gated_confidence} over plain z-score confidence;
    the ablation bench measures the difference.

    [jobs] (default 1) fans the per-(source attribute) scoring out over
    a {!Runtime.Pool} of that many domains.  The fan-out is
    deterministic: results are merged in attribute order and the model
    is bit-identical to the sequential build's.

    Failure containment: with a [report], a fan-out unit that raises (a
    matcher choking on a pathological column, an injected fault, the
    [deadline] expiring) quarantines only its source attribute — the
    attribute contributes no scores, a [build]-stage issue is recorded,
    and the rest of the model is unaffected.  Without a [report] the
    first failure re-raises (legacy fail-fast).  Each unit also passes
    the {!Robust.Fault.Matcher_score} site keyed ["table.attr"].

    With a [store], every column artefact lookup (source, target and
    view columns alike) falls back from the in-memory caches to the
    persistent store before computing, and computed artefacts are
    written through — a later [build] over unchanged inputs starts
    warm ({!profile_builds} stays 0).  The caller owns the store's
    lifecycle ({!Store.flush}).

    [kernel] (default true) scores views over partition groups in
    their family's id space ({!Profile_cache.set_partitioning},
    {!view_matches}) instead of re-scanning rows.  Every score either
    way is bit-identical: partition counts and sets add exactly.
    [kernel:false] selects the legacy row re-scan (the kernel bench's
    baseline).

    With [prepared], the target-side work (warming, store registration
    of target tables) is skipped entirely and the shared artefact is
    consumed instead — [target] should be {!prepared_target_db}.  The
    resulting model, report and matches are bit-identical to an inline
    build over the same target; only the cost moves (to registration
    time, once).

    [filter] (default none: every pair is scored) retrieves top-k q-gram
    candidates per textual source attribute and restricts
    {!Matchers.filterable} matchers' textual pairs to the survivors
    (filtered-out pairs keep an exact 0.0 in the normalisation
    distribution but contribute no confidence, exactly like
    inapplicable pairs).  Filtered results are invariant under the
    [kernel] switch and [jobs], and with a full-width [k] and [tau = 0]
    the filter keeps every pair, bit for bit. *)

val target : model -> Database.t

val profile_cache : model -> Profile_cache.t
(** The cache threaded through every view column this model scores. *)

val pairs_scored : model -> int
(** (matcher, source attribute, target column) scoring events actually
    performed; jobs-invariant. *)

val pairs_pruned : model -> int
(** Scoring events skipped by the candidate filter (0 without one);
    jobs-invariant. *)

val coded : model -> Table.t -> string -> Textsim.Coded.t
(** The coded column of a source table's attribute, shared with every
    base artefact and partition family this model counts from it
    ({!Profile_cache.coded} on {!profile_cache}). *)

val cache_stats : model -> int * int
(** [(hits, misses)] of this build's caches so far: the source cache,
    plus the target cache when this build prepared the target itself
    (no [prepared]).  A shared prepared target's lookups are its
    preparation's, not any consuming build's. *)

val profile_builds : model -> int
(** Column artefacts computed from raw values so far, over the same
    caches as {!cache_stats}: lookups that missed both the in-memory
    caches and the persistent store (if any).  Never more than the
    misses; equal to them without a store; zero when a warm store
    answered everything. *)

val confidence : model -> src_table:string -> src_attr:string -> tgt_table:string ->
  tgt_attr:string -> float
(** Combined confidence of a base-table pair; 0.0 when no matcher was
    applicable. *)

val matches : model -> tau:float -> Schema_match.t list
(** All standard matches with confidence >= tau, sorted by decreasing
    confidence.  This is StandardMatch(R_S, R_T, tau) for every source
    table at once. *)

val matches_from : model -> src_table:string -> tau:float -> Schema_match.t list
(** Standard matches originating from one source table. *)

val score_view :
  model -> View.t -> src_attr:string -> tgt_table:string -> tgt_attr:string -> float
(** Confidence of (view.src_attr -> tgt) under the view's restriction.
    Returns 0.0 for an empty view (no evidence). *)

val view_scores :
  model -> View.t -> src_attr:string -> tgt_table:string -> tgt_attr:string ->
  (string * float) list
(** The raw scores {!score_view} combines, by matcher name, in suite
    order: one per matcher with normalisation stats for the source
    attribute and applicable to the pair, computed as {!view_matches}
    computes them.  [[]] for an empty view. *)

val view_matches :
  model -> View.t -> base_matches:Schema_match.t list -> Schema_match.t list
(** ScoreMatch for every base match whose source is the view's base
    table (Fig. 5 lines 8–11): each match is re-scored under the view
    and annotated with the view's condition.

    With the kernel on, a view whose condition selects values of one
    other attribute is scored in that attribute's family id space
    ({!Column.view_columns}): matchers hinted {!Matcher.Schema_only}
    read the base raw score, the q-gram, word and value-overlap hints
    run on the view's family ids against each target column translated
    into the family once per model, and any other matcher runs
    [Matcher.score] on the cache-less view column.  No per-view
    artefact is cached or stored; every score equals the row re-scan's
    bit for bit. *)
