(** q-gram frequency profiles of value collections.

    A profile summarises the textual content of a column as a normalised
    q-gram frequency vector; two columns are compared with cosine
    similarity.  This is the core signal of the instance matcher and of
    TgtClassInfer's string classifier.

    {2 Scoring kernel}

    A profile can additionally carry an {e interned} view against a
    frozen {!Gram_dict}: its grams as dense int ids, id-sorted (which is
    gram-sorted, by the dictionary's construction), alongside a cached
    L2 norm of the frequency vector.  When two profiles share a
    dictionary and at least one of them is fully in-vocabulary,
    {!cosine} switches from the string merge join to an int merge
    join — no [String.compare] per gram, no per-call norm folds —
    and, because both joins add the identical terms in the identical
    (gram-lexicographic) order, the interned scores are bit-identical to
    the string-path scores.  Profiles serialise by gram {e string}
    ({!counts}/{!of_counts}), never by id, so persisted artefacts are
    independent of any particular interner. *)

type t

val of_strings : ?q:int -> string list -> t
(** Accumulate all q-grams (default q = 3) of every string. *)

val of_strings_array : ?q:int -> string array -> t

val add : t -> string -> unit
(** Fold one more string into the profile.  Drops the memoised sorted
    view, cached norm and interned view. *)

val patch : t -> add:string list -> remove:string list -> unit
(** Fold the [add] strings in and the [remove] strings out, in place.
    Removal is the exact integer inverse of {!add}: counts drop by each
    removed string's gram multiplicities and vanish at zero, so the
    patched profile's canonical counts — and therefore every similarity,
    norm and interned view derived from them — are bit-identical to a
    profile rebuilt from scratch over the surviving strings.  Raises
    [Invalid_argument] if a removal would drive a gram count negative
    (the string was never added).  Drops the memoised views. *)

val gram_count : t -> int
(** Number of distinct grams. *)

val total : t -> int
(** Total gram occurrences. *)

val q : t -> int
(** Gram length the profile accumulates. *)

val counts : t -> (string * int) array
(** Distinct grams with occurrence counts, sorted by gram.  The array
    is the canonical representation the similarity folds run over (and
    the one the persistent store serialises); callers must not mutate
    it. *)

val of_counts : q:int -> (string * int) array -> t
(** Rebuild a profile from [counts] output.  Similarities computed from
    the rebuilt profile are bit-identical to the original's: the folds
    iterate gram-sorted counts, never raw hashtable order. *)

val norm : t -> float
(** L2 norm of the relative-frequency vector, cached after the first
    call (and recomputed after {!add}).  Equal — bitwise — to the fold
    {!cosine} historically performed per call. *)

val intern : Gram_dict.t -> t -> unit
(** Attach the interned view against [dict] (one pass over the counts).
    Idempotent for the same dictionary; interning against another
    dictionary replaces the view.  Safe to call concurrently from
    worker domains for the same frozen dictionary (same-value racy
    writes are benign). *)

val interned_ids : t -> Gram_dict.t -> (int array * int array) option
(** [(ids, counts)] of the interned view on [dict], id-sorted, covering
    the profile's in-vocabulary grams only. *)

val cosine : t -> t -> float
(** Cosine similarity of the two frequency vectors.  Uses the int
    merge join when an interned fast path applies (see above), the
    string merge join otherwise; the two agree bit for bit. *)
