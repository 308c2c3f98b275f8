(** The per-model scoring kernel: a frozen {!Textsim.Gram_index} over
    the model's (textual) target columns, addressed by
    [(target table, attribute)].

    Built once on the main domain at the end of
    {!Standard_match.build}'s target warm-up — before the per-attribute
    fan-out — and immutable afterwards, so worker domains read it
    without locks.
    Batch {!scores} and {!top_k} record [kernel.*] observability
    counters; in particular [kernel.batch.pruned] /
    [kernel.topk.pruned] count the pairs skipped as exact zeros (no
    shared gram) — the differential suite checks those skips never
    change a score. *)

type t

val build : ((string * string) * Textsim.Profile.t) array -> t
(** [(table, attr), profile] per target column, in slot order. *)

val patch : t -> ((string * string) * Textsim.Profile.t) list -> t option
(** Replace the named target columns' profiles, touching only the
    postings of their changed grams (see {!Textsim.Gram_index.patch}).
    Returns a new kernel sharing the frozen dictionary and name table;
    the original stays valid.  [None] when a replacement profile holds
    an out-of-vocabulary gram — the dictionary cannot grow, so the
    caller must rebuild.  Names not present in the kernel (e.g. columns
    quarantined at warm time) are ignored. *)

val slot : t -> table:string -> attr:string -> int option

val scores : t -> Textsim.Profile.t -> float array
(** Exact cosine against every target, indexed by {!slot}; bit-identical
    to pairwise {!Textsim.Profile.cosine} (see
    {!Textsim.Gram_index.scores}).
    Raises [Invalid_argument] if any cosine is NaN — the boundary
    rejects a poisoned score instead of letting it reach
    normalisation. *)

val top_k :
  t -> Textsim.Profile.t -> k:int -> tau:float -> ((string * string) * float) list
(** Up to [k] targets with cosine >= [tau], best first, ties at the
    rank-k boundary broken by ascending target slot (the column's
    position in {!build}'s array): {!Textsim.Gram_index.select} over
    the exact {!scores}, so it equals exhaustive pairwise scoring +
    filter + sort.  Rejects NaN like {!scores}. *)
