(** Delta-maintained per-table column artefacts.

    One value of [t] tracks a table and the base-column artefacts the
    matcher derives from it — q-gram profiles, distinct sets, word
    sets — and patches them in O(delta) as {!Core.t} mutations arrive,
    instead of re-scanning the table.  Per-group (partition) artefacts
    are not maintained: partition families are counted from a coded
    column on first use and never keyed.

    {2 Exactness}

    A textual attribute's 3-grams, distinct values and words are kept
    as occurrence multisets, and a row's contribution is folded in and
    out with exact integer increments and decrements, so after any
    append/delete interleaving the maintained state equals — bag for
    bag, hence score for score, bit for bit — a cold scan of the
    surviving rows.  Numeric summaries are not an invertible integer
    algebra and are not maintained: the patched column recomputes its
    summary over the current rows with the cold path's exact fold. *)

type t

val create : Relational.Table.t -> t
(** Scan [table] once and take ownership of its maintained state. *)

val apply : t -> Core.t -> unit
(** Patch every maintained artefact by the delta and advance the
    current table ({!Core.apply}).  O(delta) for profiles and
    distinct/word sets.  Raises [Invalid_argument] when
    {!Core.validate} rejects the delta; the state is then unchanged. *)

val table : t -> Relational.Table.t
(** The current (post-delta) table. *)

val profile : t -> string -> Textsim.Profile.t option
(** The q-gram profile of a textual attribute's maintained gram
    counts ({!Textsim.Profile.of_counts}).  [None] for unknown or
    non-textual attributes; same convention below. *)

val distinct : t -> string -> string list option
(** Distinct display strings, sorted — textual and int attributes. *)

val words : t -> string -> string list option
(** Distinct word tokens, sorted — textual attributes. *)

val column_patches : t -> Matching.Standard_match.column_patch list
(** The maintained artefacts of every attribute, shaped for
    {!Matching.Standard_match.patch_prepared}. *)
