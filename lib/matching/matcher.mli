(** The matcher abstraction (paper §2.3): a named scoring function over
    a (source column, target column) pair, returning a raw similarity in
    [0, 1].  Raw scores are *not* comparable across matchers; the
    normalisation step converts them into confidences. *)

open Relational

type kernel_hint =
  | No_kernel  (** always scored through [score] *)
  | Schema_only
      (** [score] reads only the two columns' attributes (name and
          type), never their values, so a view column — which carries
          its base column's attribute — scores exactly what its base
          column scored; view scoring reads the base model's raw score
          instead of calling [score] again *)
  | Qgram_cosine
      (** [score] equals q-gram profile cosine of the pair, so the
          candidate filter may reuse its retrieval probe's cosine, and a
          view over partition groups may be scored from the groups'
          summed gram counts *)
  | Word_jaccard
      (** [score] equals {!Textsim.Simmetrics.jaccard} of the two
          columns' {!Column.words}: a view over partition groups may be
          scored from the union of the groups' word ids *)
  | Value_jaccard
      (** [score] equals {!Textsim.Simmetrics.jaccard} of the two
          columns' {!Column.distinct_strings}: a view over partition
          groups may be scored from the union of the groups' value ids *)
(** What [score] computes, when it is one of the computations the
    scoring paths know a shortcut for.  Every shortcut produces the
    float [score] would (see DESIGN.md, "Scoring kernel"); [score]
    remains the semantics of record, and a matcher without a hint
    (user-defined ones by default) always runs through it. *)

type t = {
  name : string;
  weight : float;  (** relative weight in the combination step *)
  kernel : kernel_hint;  (** scoring shortcut, when one applies *)
  applicable : Attribute.t -> Attribute.t -> bool;
      (** whether this matcher produces a meaningful score for a pair of
          attributes (e.g. the numeric matcher needs numeric columns) *)
  score : Column.t -> Column.t -> float;  (** raw similarity, [0,1] *)
}

val make :
  name:string ->
  ?weight:float ->
  ?kernel:kernel_hint ->
  applicable:(Attribute.t -> Attribute.t -> bool) ->
  (Column.t -> Column.t -> float) ->
  t

val applicable_pair : t -> Column.t -> Column.t -> bool
val score : t -> Column.t -> Column.t -> float
(** [clamp] of the matcher's raw score. *)

val clamp : float -> float
(** Clamp to [0, 1]; NaN maps to 0 (it carries no signal, and
    [Float.min]/[Float.max] would propagate it into the normalisation
    distribution otherwise).  Every shortcut of a {!kernel_hint}
    applies it to the value it computes, as [score] does. *)
