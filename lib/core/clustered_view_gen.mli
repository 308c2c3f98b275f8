(** ClusteredViewGen (paper Fig. 6): find well-clustered view families.

    For a categorical attribute l and a non-categorical attribute h, a
    classifier C_h mapping h-values to l-values is trained on one part
    of the sample and tested on the rest.  If the held-out accuracy is
    significantly better than the majority-class null hypothesis
    (§3.2.2), the family of views partitioning the table on l is
    well-clustered and becomes a candidate for contextual matching.

    Under EarlyDisjuncts (§3.3) the most-confused label pairs are merged
    iteratively, producing families whose views carry simple-disjunctive
    conditions (l IN {v, v'}). *)

open Relational

type trainer = labels:string array -> train:int array -> int -> string option
(** One train/test round over the rows of a prepared column:
    [labels.(i)] is row [i]'s label (meaningful on the rows the round
    uses), [train] the training rows' indices; the result predicts the
    label of a row index (None = abstain). *)

(** How a classifier for (h -> label) is obtained.  SrcClassInfer trains
    on the source values of h; TgtClassInfer tags h-values with the most
    similar target column and learns tag -> label associations. *)
type teacher = {
  teacher_name : string;
  prepare : Table.t -> h:string -> trainer;
      (** [prepare table ~h] featurizes the h column once; {!generate}
          calls it at most once per h and reuses the trainer for every
          round on that column. *)
}

type verdict = {
  h_attr : string;
  l_attr : string;
  quality : float;  (** micro-averaged F1 on held-out rows *)
  null_likelihood : float;
  significant : bool;
  confusion : Stats.Confusion.t;
}

val feature_of : Table.t -> h:string -> Table.row -> Learn.Classifier.feature
(** The classification feature of row's h-cell: text for strings/bools,
    number for ints/floats, missing for nulls. *)

val column_features : Table.t -> h:string -> Learn.Classifier.feature array
(** {!feature_of} of every row's h-cell, in row order. *)

val evaluate :
  Stats.Rng.t ->
  Config.t ->
  teacher ->
  Table.t ->
  h:string ->
  l:string ->
  label_map:(Value.t -> string) ->
  verdict option
(** One train/test round.  [label_map] renders the l-value of a row into
    its (possibly merged) classification label.  [None] when the table
    is too small to split or l has a single value. *)

val best_verdict :
  Stats.Rng.t -> Config.t -> teacher -> Table.t -> l:string -> verdict option
(** Best verdict for l over all non-categorical attributes h (h <> l);
    [None] when no h yields a significant verdict. *)

val merged_families :
  Stats.Rng.t -> Config.t -> teacher -> Table.t -> l:string -> h:string -> View.family list
(** The EarlyDisjuncts merge loop seeded at (h, l): repeatedly merge the
    most-confused label pair, re-evaluate, and emit a view family for
    each merged grouping that remains significant. *)

val generate : Stats.Rng.t -> Config.t -> teacher -> Table.t -> View.family list
(** Candidate view families of a table: for every categorical l, the
    simple family when some h classifies it significantly, plus (under
    EarlyDisjuncts) the merged disjunctive families.  Each h column is
    prepared once per call and shared by every round on it; nothing
    outlives the call. *)
