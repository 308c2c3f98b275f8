(** String and token-set similarity metrics.  All return values in
    [0, 1], 1 meaning identical. *)

val levenshtein : string -> string -> int
(** Edit distance (insert/delete/substitute, unit costs). *)

val levenshtein_similarity : string -> string -> float
(** [1 - distance / max-length]; 1.0 for two empty strings. *)

val jaro : string -> string -> float

val jaro_winkler : ?prefix_scale:float -> string -> string -> float
(** Jaro with Winkler's common-prefix boost (scale default 0.1, prefix
    capped at 4). *)

val jaccard : string list -> string list -> float
(** Set Jaccard of token lists; 1.0 for two empty lists. *)

val strictly_sorted : string list -> bool
(** Whether the list is strictly ascending under [String.compare]: a
    set in sorted order, which {!jaccard} counts in one merge pass. *)

val dice : string list -> string list -> float
(** Sørensen–Dice coefficient over token sets. *)

val overlap : string list -> string list -> float
(** Overlap coefficient: |A∩B| / min(|A|,|B|). *)

val cosine_bags : (string * float) list -> (string * float) list -> float
(** Cosine of sparse weighted bags (e.g. q-gram frequency profiles). *)

val name_similarity : string -> string -> float
(** Similarity of two schema identifiers: max of Jaro-Winkler on the
    normalised strings and token-set Jaccard of {!Tokenize.name_tokens},
    with containment credit.  Used by the name matcher. *)
