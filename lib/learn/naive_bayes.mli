(** Multinomial naive Bayes over bags of token ids.

    Used with 3-gram tokens for textual attributes (paper §3.2.3: "If h
    is a text attribute, a standard Naive Bayesian classifier is used,
    with the values tokenized into 3-grams").  Laplace-smoothed,
    computed in log space.

    Tokens are ids [0 .. size - 1] of a {!Textsim.Gram_dict}, counted
    in one dense array per label.  Each label caches its
    [log ((n + alpha) / denom)] term per count [n], filled on first
    use, so a classification costs two array reads per token and label.
    A document's log likelihood folds its tokens' terms left to right,
    exactly as a string-keyed table would, so the posteriors do not
    depend on the encoding. *)

type t

val create : ?alpha:float -> size:int -> unit -> t
(** A classifier over token ids [0 .. size - 1]; [alpha] is the Laplace
    smoothing constant (default 1.0). *)

val train : t -> label:string -> int array -> unit
(** Add one training document (a bag of token ids) under [label].
    Raises [Invalid_argument] on an id outside [0 .. size - 1]. *)

val labels : t -> string list
(** Labels seen so far, sorted. *)

val document_count : t -> int

val log_posteriors : t -> int array -> (string * float) list
(** Unnormalised log posterior per label, best first.  Empty when the
    classifier has seen no data.  The vocabulary is the set of distinct
    ids seen in training; an id never seen under a label, including an
    id outside [0 .. size - 1] (a gram outside the dictionary), takes
    the zero-count term. *)

val classify : t -> int array -> string option
(** Most probable label; ties broken in favour of the more frequent
    label, then lexicographically.  [None] before any training. *)

val classify_with_margin : t -> int array -> (string * float) option
(** Best label and the log-posterior gap to the runner-up (infinite when
    there is a single label). *)
