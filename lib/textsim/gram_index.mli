(** Gram-based inverted index over a fixed set of target profiles, with
    exact batch cosine scoring.

    [build] freezes a {!Gram_dict} over every target gram, interns the
    targets in place (so pairwise {!Profile.cosine} against them takes
    the int fast path too), and lays both the interned target profiles
    and the gram → (target, relative frequency) postings out as flat
    {!Csr} arenas: one cache-linear buffer each for offsets, ids and
    values, walked with no pointer chase.

    {2 Soundness}

    {!scores} is {e exact}: per target it accumulates the identical dot
    terms, in the identical gram-sorted order, as the string merge join
    of {!Profile.cosine}, so its cosines are bit-identical — including
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
    patched slot, and bulk-blitting (bit-preserving) every untouched
    row into the fresh arenas.  The original index is left untouched.
    Cost is O(delta) posting work plus an O(arena) copy — far below a
    cold rebuild's re-tokenisation, but not in-place: the flat layout
    trades update locality for scan locality.

    The frozen dictionary cannot grow, so [None] is returned when any
    replacement profile holds an out-of-vocabulary gram; the caller
    must rebuild from scratch.  Grams whose postings empty out remain
    in the dictionary as zero-length arena rows but are score-neutral
    (an empty row contributes nothing to the accumulation), so
    {!scores} on the patched index is bit-identical to a cold {!build}
    over the new target set. *)

val gram_count : t -> int
(** Vocabulary size. *)

val arena_bytes : t -> int
(** Flat-buffer footprint of the posting and profile arenas. *)

val scores : t -> Profile.t -> float array * int
(** [(cosines, touched)]: [cosines.(i)] is bit-identical to
    [Profile.cosine cand target_i]; [touched] counts targets sharing at
    least one gram — the other pairs were skipped as exact zeros. *)

val select : float array -> k:int -> tau:float -> (int * float) list
(** Up to [k] slots of a full scores array with score >= [tau], sorted
    by decreasing score, ties broken on ascending slot — the
    deterministic top-k step, so every caller breaks rank-k ties
    identically. *)
