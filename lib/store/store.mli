(** Persistent, sharded on-disk profile store.

    Extends the in-memory {!Matching.Profile_cache} across process
    runs: the per-attribute artefacts the matchers derive (q-gram
    profile, numeric summary, distinct set) are serialised under
    content-addressed keys into [N] shard files plus a small index,
    loaded lazily (a shard is read the first time a key hashes into
    it) and written back atomically — temp file + rename — by
    {!flush}.

    {2 Key derivation}

    An entry's address is the digest of a canonical textual encoding
    of [(format version, artefact kind, table, attr, row-subset
    digest, data digest)].  The row-subset digest is
    {!Matching.Profile_cache.subset_digest} (canonical index
    encoding, stable across OCaml versions and architectures); the
    data digest ({!table_digest}) covers the backing table's schema
    and every cell, so editing one value of the input invalidates
    exactly that table's entries.  No [Marshal] anywhere: both the
    keys and the shard payloads are version-stable text.

    {2 Failure semantics}

    A corrupted, truncated or version-mismatched shard is never
    fatal: it is quarantined (renamed to [<shard>.quarantined] unless
    the store is read-only), reported through the {!Robust.Error}
    taxonomy (stage [Store], severity [Warning]), and the shard
    restarts empty — the run recomputes and the next {!flush} writes
    a clean replacement.  The same applies to an index written by a
    different format version, which quarantines every shard.

    Three {!Robust.Fault} sites cover the store's I/O:
    [Store_shard_read] (fires before a shard file is read; a raising
    fault propagates and leaves the shard unloaded for retry — a
    transient I/O error must not quarantine healthy data),
    [Store_shard_write] (fires in {!flush}; [Raise] fails before the
    rename so old contents survive, [Torn_write] persists a prefix
    and still renames — the no-fsync crash model the END footer
    canary exists for) and [Store_flush_rename] (fails the rename
    itself; the complete new payload is discarded with the temp
    file and old contents survive).  {!flush} propagates injected
    write faults with the affected shard still marked dirty, so a
    later flush retries with the full payload.

    {2 What a live-target update persists}

    Nothing but artefacts: a patched table registers under its new
    {!table_digest}, and its columns' artefacts are written through
    under that digest like any other, so a restarted process warms
    from the patched state.  Shards written before the delta log was
    removed may hold delta records (kind [X]); the parser checks their
    line structure, counts them against the END footer and drops
    them, so such a shard opens and verifies clean and loses its
    records the next time it is written.

    {2 Interner independence}

    Profiles are serialised by gram {e string}
    ({!Textsim.Profile.counts}), never by the dense ids a coded column
    or partition family's {!Textsim.Gram_dict} assigns in-process:
    dictionaries are per-model and per-run, while stored artefacts
    outlive both.  A store written by a kernel run therefore warms a
    legacy run byte-identically and vice versa, and re-reading an entry
    under a differently-built dictionary is impossible by
    construction.  A
    profile record also carries its gram size, always 3; a record of
    any other size is corrupt and quarantines its shard.

    {2 Concurrency}

    All operations are mutex-protected and may be called from worker
    domains; artefact values are immutable once stored.  Duplicate
    adds of the same address are idempotent. *)

type t

val format_version : int

val open_dir : ?shards:int -> ?readonly:bool -> ?report:Robust.Report.t -> string -> t
(** [open_dir dir] opens (creating the directory if needed) a store
    rooted at [dir].  [shards] (default 8) only applies to a fresh
    store; an existing index fixes the count.  With [readonly] the
    store never touches disk beyond reads: {!flush} is a no-op and
    quarantine leaves corrupt files in place.  [report] additionally
    receives every quarantine issue as it happens.  Raises [Sys_error]
    only when the directory itself cannot be created or listed. *)

val dir : t -> string
val readonly : t -> bool

type key = {
  table : string;  (** base table name *)
  attr : string;  (** attribute name *)
  subset : string;  (** {!Matching.Profile_cache.subset_digest} of the row subset *)
  data : string;  (** {!table_digest} of the backing table *)
}

val table_digest : Relational.Table.t -> string
(** Canonical digest of a table's name, schema and every cell value
    (floats by their IEEE bits, strings length-prefixed), so equal
    digests imply the very same sample the profiles were computed
    from. *)

val find_profile : t -> key -> Textsim.Profile.t option
val find_summary : t -> key -> Stats.Descriptive.summary option
val find_distinct : t -> key -> string list option
(** Lookups load the owning shard on first touch; a corrupt shard is
    quarantined and the lookup misses. *)

val add_profile : t -> key -> Textsim.Profile.t -> unit
val add_summary : t -> key -> Stats.Descriptive.summary -> unit
val add_distinct : t -> key -> string list -> unit
(** No-ops on a read-only store. *)

val flush : t -> unit
(** Write every dirty shard back (temp file + atomic rename) and
    refresh the index.  No-op on a read-only store; untouched shards
    are not rewritten. *)

type stats = {
  st_hits : int;  (** lookups answered from a shard *)
  st_misses : int;  (** lookups that found nothing *)
  st_adds : int;  (** new entries recorded since open *)
  st_shard_loads : int;  (** shard files read *)
  st_quarantined : int;  (** shards quarantined as corrupt/stale *)
  st_flushed : int;  (** shards written back *)
  st_entries : int;  (** entries across currently loaded shards *)
}

val stats : t -> stats

val issues : t -> Robust.Error.t list
(** Quarantine events since open, oldest first (also mirrored to the
    [report] passed at {!open_dir}, and to the [store.*] observability
    counters). *)

(** {2 Recovery audit}

    {!verify} walks a store directory without opening (or mutating)
    it and classifies every file: shards that parse end to end are
    [Shard_clean]; shards missing the ["END <n>"] footer lost their
    tail to a torn write and are [Shard_truncated]; shards that carry
    the footer but fail to parse are [Shard_corrupt]; files the
    recovery path already renamed to [.quarantined] stay
    [Shard_quarantined].  Leftover [.tmp] files from an interrupted
    atomic write are counted separately — the rename never happened,
    so they are harmless.  The chaos gate accepts a store iff
    {!verify_healthy}: nothing truncated, nothing corrupt, index
    readable. *)

type shard_status = Shard_clean | Shard_truncated | Shard_corrupt | Shard_quarantined

val shard_status_name : shard_status -> string

type verify_entry = { ve_file : string; ve_status : shard_status; ve_detail : string }

type verify_report = {
  vr_entries : verify_entry list;  (** one per store file, sorted by name *)
  vr_clean : int;
  vr_truncated : int;
  vr_corrupt : int;
  vr_quarantined : int;
  vr_tmp : int;  (** leftover temp files (harmless) *)
  vr_index_ok : bool;  (** index absent-or-parseable *)
}

val verify : string -> verify_report
(** [verify dir] audits the store rooted at [dir].  Never raises: an
    unlistable directory yields an empty report. *)

val verify_healthy : verify_report -> bool
(** No truncated or corrupt shard and a readable index — every file
    is clean, quarantined or a harmless temp leftover. *)
