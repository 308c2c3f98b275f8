(** Shared cache of per-column derived artefacts (q-gram profile,
    numeric summary, distinct set) keyed by
    [(base table, attribute, row-subset digest)], and of the coded
    columns and partition families they are counted from.

    A {!Column.t} caches its artefacts for its own lifetime; this cache
    extends the reuse across columns — base columns, and candidate
    views scored by row re-scan whose conditions select the same row
    subset.  Entries are keyed by a digest of the exact row-index
    array, so equal subsets hit and any differing subset misses; a hit
    returns an artefact computed from the very same value sequence,
    keeping cached scores bit-identical to freshly computed ones.

    Each (table, attribute) is coded once ({!coded}): its cells coded
    by display string, each distinct string tokenized once, and only
    for the artefacts asked for.  Base-column artefacts and partition
    families are integer counts over the coded column.

    Candidate views conditioned on one categorical attribute select
    unions of that attribute's {!partition} groups, and are scored in
    the id space of a {e family}: each group's artefact as ids in the
    coded column's dictionary, a CSR {!family} pack for gram counts and
    a {!set_family} for distinct and word sets.  A view is a union of
    the family's integer rows, accumulated in one per-domain scratch
    vector ({!compose_counts}, {!compose_ids}), and each target column
    is translated into the family's dictionary once ({!target_counts},
    {!target_set}).  A view's own artefacts are derived this way on
    every scoring, never cached or stored.

    Backed by {!Runtime.Memo}, which computes each key once: safe to
    share across the worker domains of a parallel run, with every
    counter independent of the scheduling.

    Optionally backed a second level down by a persistent {!Store}
    (see {!attach_store}): an in-memory miss then consults the store
    before computing, and a computed artefact is written through, so a
    later process run on the same inputs starts warm.  Coded columns,
    partitions, families and translations are never persisted; the
    store only ever sees base-column and re-scanned view artefacts
    under their [(table, attribute, digest)] keys. *)

type key = string * string * string
(** [(base table name, attribute name, row-subset digest)]. *)

type partition = {
  part_values : Relational.Value.t array;
      (** distinct non-null values, ascending under [Value.compare] *)
  part_indices : int array array;  (** per value: matching row indices, ascending *)
}
(** Partition of a base table's rows by one condition attribute's values
    (see {!partition}). *)

type 'a translations
(** Per-model, lock-protected translations of target columns into one
    family's dictionary, built at most once per target column. *)

type target_counts
(** One target column's gram counts over a {!family}'s ids (see
    {!target_counts}). *)

type target_set
(** One target column's set over a {!set_family}'s ids (see
    {!target_set}). *)

type family = {
  fam_dict : Textsim.Gram_dict.t;
      (** the coded column's gram dictionary ({!Textsim.Coded.grams}) *)
  fam_rows : Textsim.Csr.ints;
      (** one id-sorted (id, count) arena row per partition group *)
  fam_targets : target_counts translations;
}
(** Columnar pack of one partition's per-group gram counts (see
    {!family}). *)

type set_family = {
  set_dict : Textsim.Gram_dict.t;
      (** the coded column's value or word dictionary; ids follow
          [String.compare] order *)
  set_rows : int array array;  (** per partition group: its set's ids, ascending *)
  set_targets : target_set translations;
}
(** One partition's per-group distinct (or word) sets as ids in one
    sorted dictionary (see {!set_family}). *)

type set_kind =
  | Values  (** distinct display strings *)
  | Words  (** distinct word tokens *)

type view_counts = {
  vc_ids : int array;  (** family gram ids, ascending *)
  vc_counts : int array;  (** their summed counts, all positive *)
  vc_total : int;  (** sum of [vc_counts] *)
  vc_norm : float;  (** L2 norm of the relative-frequency vector *)
}
(** The gram counts of a union of partition groups (see
    {!compose_counts}). *)

type t = {
  profiles : (key, Textsim.Profile.t) Runtime.Memo.t;
  summaries : (key, Stats.Descriptive.summary) Runtime.Memo.t;
  distincts : (key, string list) Runtime.Memo.t;
  coded : (string * string, Textsim.Coded.t) Runtime.Memo.t;
      (** keyed by (table name, attribute) *)
  partitions : (string * string, partition) Runtime.Memo.t;
      (** keyed by (table name, condition attribute) *)
  families : (string * string * string, family) Runtime.Memo.t;
      (** keyed by (table name, condition attribute, scored attribute) *)
  set_families : (string * string * string * set_kind, set_family) Runtime.Memo.t;
      (** keyed by (table name, condition attribute, scored attribute,
          kind) *)
  mutable partitioning : bool;
      (** when set, views over partition groups are scored in their
          family's id space instead of by row re-scan *)
  mutable store : Store.t option;  (** second-level persistent backing *)
  digests : (string, string) Hashtbl.t;  (** table name -> {!Store.table_digest} *)
  digests_lock : Mutex.t;
  builds : int Atomic.t;  (** artefacts actually computed (no cache/store hit) *)
  full_range : (int * string) option Atomic.t;
      (** the last whole-range digest taken ({!full_key}), with its row
          count *)
}

val create : unit -> t

val attach_store : t -> Store.t -> unit
(** Back in-memory misses by a persistent store.  Only tables passed to
    {!register_table} participate (the on-disk key needs their data
    digest); lookups for unregistered tables skip the store. *)

val register_table : t -> Relational.Table.t -> unit
(** Compute and remember the table's {!Store.table_digest}.  Call
    before the parallel fan-out touches the table's columns. *)

val register_digest : t -> table:string -> digest:string -> unit
(** Force-register a table's data digest (unlike {!register_table},
    replaces any existing entry).  Used by delta maintenance, which
    knows the patched table's digest without re-encoding the rows. *)

val table_digest : t -> string -> string option
(** The digest registered for a table name, if any. *)

val profile : t -> key -> (unit -> Textsim.Profile.t) -> Textsim.Profile.t
val summary : t -> key -> (unit -> Stats.Descriptive.summary) -> Stats.Descriptive.summary

val distinct : t -> key -> (unit -> string list) -> string list
(** Memo lookup, then (when a store is attached and the table
    registered) store lookup, then [compute] — which bumps the build
    counter and writes the artefact through to the store. *)

val seed_profile : t -> key -> Textsim.Profile.t -> unit

val seed_distinct : t -> key -> string list -> unit
(** Insert a delta-maintained artefact as if it had been computed
    cold: memo insert (a pre-existing entry wins), write-through to an
    attached store under the table's registered digest, and {e no}
    build-counter bump — a seeded-then-warm run still reports zero
    builds. *)

val builds : t -> int
(** Artefacts computed from raw values so far: lookups that missed both
    the memo and the store.  Zero on a fully warm run.  Coded columns,
    partitions and families are not counted.  Mirrored on the
    [cache.profile.builds] metric. *)

val subset_digest : int array -> string
(** Collision-resistant digest of a row-index array, computed over a
    canonical textual encoding of the indices (never [Marshal], whose
    byte layout is OCaml-version- and architecture-dependent), so the
    digest is stable enough to double as an on-disk store key. *)

val key : table:string -> attr:string -> indices:int array -> key

val full_key : t -> table:string -> attr:string -> rows:int -> key
(** [key ~table ~attr ~indices:[|0; ...; rows - 1|]], the key of a whole
    base column, with the digest of the last row count asked for kept
    in [t], so the columns of one table digest their rows once. *)

val set_partitioning : t -> bool -> unit
(** Enable scoring views over partition groups in their family's id
    space (off by default; {!Standard_match.build} switches it on when
    its [kernel] knob is on). *)

val partitioning : t -> bool

val code : Relational.Table.t -> string -> Textsim.Coded.t
(** The coded column of one attribute: each non-null cell coded by its
    [Value.to_string] display string (the strings {!Column.strings}
    lists), nothing tokenized yet.  The one builder of coded columns,
    memoised by {!coded}. *)

val coded : t -> table:Relational.Table.t -> attr:string -> Textsim.Coded.t
(** {!code}, computed once per (table, attribute) and memoised for the
    cache's lifetime; never stored.  Each build counts once on
    [cache.coded.builds], and its distinct strings on
    [cache.coded.values]. *)

val drop_coded : t -> unit
(** Forget the memoised coded columns (a later {!coded} codes afresh).
    For a cache whose columns are warm and whose families are never
    read: the artefacts stay, the coded columns they were counted from
    are freed. *)

val partition : t -> table:Relational.Table.t -> cond_attr:string -> partition
(** Partition of [table]'s rows by the values of [cond_attr], computed
    once per (table, attribute) pair and memoised.  Grouping uses
    [Value.compare] — the same equality condition evaluation applies
    (so [Int 1] and [Float 1.] land in one group) — null rows belong to
    no group, and each group's indices are ascending: the group of [v]
    is exactly [View.row_indices] of the [Eq (cond_attr, v)] view. *)

val partition_slot : partition -> Relational.Value.t -> int option
(** Index into [part_values]/[part_indices] of one value's group
    ([None] when the value never occurs non-null in the sample). *)

val partition_indices : partition -> Relational.Value.t -> int array option
(** Row indices of one value's group ([None] when the value never
    occurs non-null in the sample). *)

val family : t -> table:Relational.Table.t -> cond_attr:string -> attr:string -> family
(** Columnar family pack for scoring [attr] over views conditioned on
    [cond_attr]: each partition group's q-gram counts
    ({!Textsim.Coded.gram_counts} over the group's rows of [attr]'s
    {!coded} column), packed into a flat CSR arena, one id-sorted row
    per group, in the coded column's gram dictionary.  Memoised per
    (table, cond_attr, attr) and built on first use; derived, never
    persisted. *)

val set_family :
  t -> table:Relational.Table.t -> cond_attr:string -> attr:string -> set_kind -> set_family
(** The set counterpart of {!family}: each partition group's distinct
    values ({!Values}) or words ({!Words}) of [attr], as ascending ids
    in the coded column's value or word dictionary.  Memoised per
    (table, cond_attr, attr, kind); derived, never persisted. *)

val compose_counts : family -> int list -> view_counts
(** Merge-sum the rows of the given group slots, reading the arena in
    place and accumulating in the calling domain's scratch vector
    (which grows to the largest family vocabulary and is all-zero again
    on return, exception or not).  The ids map to the grams of the
    count bag a row re-scan of the groups' rows builds, in gram order,
    and the norm is {!Textsim.Profile.norm}'s fold over those counts. *)

val compose_ids : set_family -> int list -> int array
(** Ids of the union of the given group slots' sets, ascending: the
    slots' id rows marked in the same per-domain scratch vector and
    read back in id order, which is [String.compare] order — the ids
    of the list [List.sort_uniq String.compare] returns on the
    concatenated sets. *)

val target_counts :
  family -> string * string -> (unit -> Textsim.Profile.t) -> target_counts
(** [target_counts fam (table, attr) profile]: the target column's
    gram counts over [fam]'s ids, with the profile's own total and
    norm.  Built from [profile ()] on the first call per (table, attr)
    for this family, under the family's lock; later calls return it.
    [profile] must not do a memo lookup (pass a warmed column's). *)

val target_set : set_family -> string * string -> (unit -> string list) -> target_set
(** The set counterpart of {!target_counts}: the target column's
    distinct members marked over [fam]'s ids, with their number. *)

val cosine : view_counts -> target_counts -> float
(** {!Textsim.Profile.cosine} of the composed view and the target,
    bit for bit: the same shared-gram terms added in the same (gram)
    order, the same zero guards and quotient.  Unclamped. *)

val jaccard : int array -> target_set -> float
(** {!Textsim.Simmetrics.jaccard} of the composed view set
    ({!compose_ids}) and the target set: the same intersection and
    union sizes, 1.0 when both are empty. *)

val hits : t -> int
val misses : t -> int
(** Counters summed over the three tables. *)

type stats = { stat_hits : int; stat_misses : int; stat_entries : int }

val stats : t -> stats
(** Hit/miss counters and total entry count summed over the three
    tables, for run summaries and the observability exporters. *)
