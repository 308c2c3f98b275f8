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

val of_ids : q:int -> Gram_dict.t -> int array -> int array -> t
(** [of_ids ~q dict ids counts]: a {e packed} profile whose gram bag is
    [dict]'s gram of [ids.(k)] with count [counts.(k)].  [ids] must be
    strictly ascending and every count positive; the caller asserts
    every gram lives in [dict], so the arrays double as a complete
    interned view against it (attached immediately — no counts pass).
    This is the constructor partition composition uses: a k-pointer
    merge over CSR arena rows yields the id/count columns directly, and
    no gram string is materialised unless the profile is serialised or
    mutated.  The profile scores bit-identically to
    [of_counts ~q [| (gram ids.(k), counts.(k)); ... |]] — every
    similarity fold runs over the same gram-sorted count sequence. *)

val sum : ?q:int -> t list -> t
(** Exact profile addition: the result's count for every gram is the
    integer sum of the inputs' counts ([total] likewise).  Because a
    profile is a pure function of its counts, summing the per-category
    partition profiles of a column reproduces — bit for bit — the
    profile a re-scan of the union of those categories' rows would
    build.  [q] defaults to the first input's gram length (3 when the
    list is empty); raises [Invalid_argument] on mixed gram lengths. *)

val norm : t -> float
(** L2 norm of the relative-frequency vector, cached after the first
    call (and recomputed after {!add}).  Equal — bitwise — to the fold
    {!cosine} historically performed per call. *)

val intern : Gram_dict.t -> t -> unit
(** Attach the interned view against [dict].  Idempotent for the same
    dictionary; re-interning against another dictionary replaces the
    view — via {!Gram_dict.translate} (one int pass) when the current
    view is complete, via one counts pass otherwise; both produce the
    identical arrays.  Safe to call concurrently from worker domains
    for the same frozen dictionary (same-value racy writes are
    benign). *)

val interned_with : t -> Gram_dict.t -> bool

val interned_ids : t -> Gram_dict.t -> (int array * int array) option
(** [(ids, counts)] of the interned view on [dict], id-sorted, covering
    the profile's in-vocabulary grams only. *)

val cosine : t -> t -> float
(** Cosine similarity of the two frequency vectors.  Uses the int
    merge join when an interned fast path applies (see above), the
    string merge join otherwise; the two agree bit for bit. *)
