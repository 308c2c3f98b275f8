(** A column handed to matchers: owning table/view name, attribute, and
    the bag of sample values.  Expensive derived artefacts (q-gram
    profile, numeric summary, distinct set) are computed lazily and
    cached, so re-scoring the same column across many matchers or view
    evaluations costs one pass.  A base column ({!of_table}) counts its
    text artefacts from its coded column ({!Profile_cache.coded}), so
    each distinct value is tokenized once; a view column scanned by
    rows tokenizes its own values. *)

open Relational

type t

type composed = {
  grams : (Profile_cache.family * Profile_cache.view_counts) Lazy.t;
      (** the view's summed gram counts over its profile family *)
  word_ids : (Profile_cache.set_family * int array) Lazy.t;
      (** the view's word set over its word-set family *)
  value_ids : (Profile_cache.set_family * int array) Lazy.t;
      (** the view's distinct set over its distinct-set family *)
}
(** The id-space artefacts of a view column over partition groups (see
    {!view_columns}), each derived from its family on first use.  Not
    safe to force from two domains at once: a view column belongs to
    the task scoring its view. *)

val make :
  ?cache:Profile_cache.t * Profile_cache.key ->
  ?composed:composed ->
  Attribute.t ->
  Value.t array ->
  t

(** The column's text artefacts are counted from its coded column:
    with [cache], {!Profile_cache.coded}'s, shared by every column and
    family over the attribute; without, one coded column of its own.
    With [cache], artefacts are also shared under the full row-index
    range of the table, so a view selecting every row hits them. *)
val of_table : ?cache:Profile_cache.t -> Table.t -> string -> t

(** With [cache], the lazy artefacts are looked up under
    [(base table, attr, digest of the view's row indices)] before being
    computed, so views selecting the same rows share one computation.

    When the cache has {!Profile_cache.partitioning} on and the view's
    condition selects values of one other attribute, the column is
    {e composed} instead: it carries {!composed} artefacts — unions of
    that attribute's family rows ({!Profile_cache.family},
    {!Profile_cache.set_family}, built on first use and shared across
    all views over it) — and no cache key, so none of its artefacts is
    looked up, kept in the cache or stored, and the view's row indices
    are never hashed for it.  Its {!profile}, {!summary} and sets, when
    a matcher asks, are computed from its values. *)
val of_view : ?cache:Profile_cache.t -> View.t -> string -> t

val view_columns : ?cache:Profile_cache.t -> View.t -> string -> t
(** [view_columns ?cache view] is {!of_view} for many attributes of one
    view: the returned function builds each attribute's column once,
    hashes the view's row indices at most once and looks its partition
    groups up at most once.  Each column built counts once on
    [match.view_columns.composed] or [match.view_columns.scanned]. *)

val composed : t -> composed option
(** The id-space artefacts of a composed view column; [None] for every
    other column. *)

val attribute : t -> Attribute.t
val name : t -> string
(** Attribute name. *)

val values : t -> Value.t array
val size : t -> int
(** Number of values including nulls. *)

val non_null_count : t -> int

val strings : t -> string array
(** Display strings of non-null values (cached after the first call). *)

val floats : t -> float array
(** Numeric images of the values that have one (cached). *)

val profile : t -> Textsim.Profile.t
(** 3-gram profile over {!strings} (cached). *)

val summary : t -> Stats.Descriptive.summary
(** Numeric summary over {!floats} (cached). *)

val distinct_strings : t -> string list
(** Distinct display strings, sorted (cached). *)

val words : t -> string list
(** Distinct word tokens over {!strings}, sorted (cached, and shared
    through the profile cache like {!distinct_strings}, so the word
    matcher stops re-tokenising the same row subset per pair). *)

val words_attr : string -> string
(** The attribute-name marker under which {!words} shares word sets
    through the distinct-set memo/store ([attr ^ "\twords"]; a tab
    never occurs in a schema or CSV attribute name).  Delta maintenance
    seeds word sets under exactly this key. *)

val warm : t -> unit
(** Force the artefacts a matcher of this column's type could ask for
    (profile/distinct/words for textual, summary for numeric, distinct
    for int).  Used to pre-populate shared columns before they are read
    concurrently from worker domains. *)
