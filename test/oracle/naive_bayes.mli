(** Reference multinomial naive Bayes over string token bags, the
    oracle for the id-keyed {!Learn.Naive_bayes}.  Every per-label
    count lives in a [Hashtbl] keyed by the token string, and every
    term is recomputed per token.

    Used with 3-gram tokens for textual attributes (paper §3.2.3: "If h
    is a text attribute, a standard Naive Bayesian classifier is used,
    with the values tokenized into 3-grams").  Laplace-smoothed,
    computed in log space. *)

type t

val create : ?alpha:float -> unit -> t
(** [alpha] is the Laplace smoothing constant (default 1.0). *)

val train : t -> label:string -> string list -> unit
(** Add one training document (a token bag) under [label]. *)

val labels : t -> string list
(** Labels seen so far, sorted. *)

val document_count : t -> int

val log_posteriors : t -> string list -> (string * float) list
(** Unnormalised log posterior per label, best first.  Empty when the
    classifier has seen no data. *)

val classify : t -> string list -> string option
(** Most probable label; ties broken in favour of the more frequent
    label, then lexicographically.  [None] before any training. *)

val classify_with_margin : t -> string list -> (string * float) option
(** Best label and the log-posterior gap to the runner-up (infinite when
    there is a single label). *)
