(** 3-gram frequency profiles of value collections.

    A profile summarises the textual content of a column as its 3-gram
    frequency vector (paper §3.2.3); two columns are compared with the
    cosine of their vectors.  This is the core signal of the instance
    matcher.

    A profile is immutable: its distinct grams with their counts,
    sorted by gram, their total and the L2 norm of the relative
    frequency vector are fixed when it is built.  Every fold runs over
    the gram-sorted counts in that one order, so a profile rebuilt from
    its {!counts} (the persistent store's record, a maintained multiset)
    scores bit-identically to the original, and so does every scorer
    that visits the same grams in the same order (a partition family's
    id-space cosine).  {!cosine} is the one pairwise q-gram scorer. *)

type t

val of_strings : string list -> t
(** Count every 3-gram ({!Tokenize.trigrams}) of every string. *)

val of_strings_array : string array -> t

val of_counts : (string * int) array -> t
(** The profile of the given counts, as {!counts} returns them: sorted
    by gram, no gram twice, every count positive.  Raises
    [Invalid_argument] otherwise.  The array is kept as is; the caller
    must not mutate it afterwards. *)

val counts : t -> (string * int) array
(** Distinct grams with occurrence counts, sorted by gram.  Callers
    must not mutate it. *)

val gram_count : t -> int
(** Number of distinct grams. *)

val total : t -> int
(** Total gram occurrences. *)

val norm : t -> float
(** L2 norm of the relative-frequency vector, folded over {!counts} in
    gram order. *)

val cosine : t -> t -> float
(** Cosine similarity of the two frequency vectors: a merge join over
    the two gram-sorted count arrays.  0 when either profile is
    empty. *)
