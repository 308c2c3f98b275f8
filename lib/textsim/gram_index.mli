(** Gram-based inverted index over a fixed set of target profiles, with
    exact batch cosine scoring.

    [build] interns every target gram into a frozen {!Gram_dict}
    ([Gram_dict.of_docs] over the targets' gram lists) and lays the
    gram → (target, relative frequency) postings out as one flat
    {!Csr} arena: one cache-linear buffer each for offsets, ids and
    values, walked with no pointer chase.  The index keeps postings
    only: a candidate's grams are looked up in the dictionary as they
    are visited, and each target's total and norm are read from its
    {!Profile.t}.

    {2 Soundness}

    {!scores} is {e exact}: per target it accumulates the identical dot
    terms, in the identical gram-sorted order, as the merge join of
    {!Profile.cosine}, so its cosines are bit-identical — including
    the implicit 0.0 of targets that share no gram with the candidate,
    which are never visited.  {!select} only decides {e which} of those
    exact scores to return, so top-k retrieval equals exhaustive
    scoring followed by filter/sort/take.

    Immutable after [build]; safe to read from worker domains. *)

type t

val build : Profile.t array -> t

val patch : t -> (int * Profile.t) list -> t option
(** [patch t [(slot, p); ...]] returns a new index equal to rebuilding
    over the targets with each [slot] replaced by [p] — rebuilding only
    the posting rows of grams present in the old or new profile of a
    patched slot, and blitting (bit-preserving) every untouched row
    into the fresh arena.  The original index is left untouched.  Cost
    is O(delta) posting work plus an O(arena) copy.

    The frozen dictionary cannot grow, so [None] is returned when any
    replacement profile holds an out-of-vocabulary gram; the caller
    must rebuild from scratch.  Grams whose postings empty out remain
    in the dictionary as zero-length rows but are score-neutral, so
    {!scores} on the patched index is bit-identical to a cold {!build}
    over the new target set. *)

val gram_count : t -> int
(** Vocabulary size. *)

val arena_bytes : t -> int
(** Flat-buffer footprint of the posting arena. *)

val scores : t -> Profile.t -> float array * int
(** [(cosines, touched)]: [cosines.(i)] is bit-identical to
    [Profile.cosine cand target_i]; [touched] counts targets sharing at
    least one gram — the other pairs were skipped as exact zeros. *)

val select : float array -> k:int -> tau:float -> (int * float) list
(** Up to [k] slots of a full scores array with score >= [tau], sorted
    by decreasing score, ties broken on ascending slot — the
    deterministic top-k step, so every caller breaks rank-k ties
    identically. *)
