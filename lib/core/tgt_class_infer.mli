(** TgtClassInfer (paper §3.2.4, Fig. 7).

    Per basic type D, a classifier C_D is trained on the *target*
    columns of that type ("createTargetClassifier"): given a value it
    guesses the target column ("tag", e.g. Book.Title) the value most
    resembles.  During doTraining a bag TBag of (tag, l-value) pairs is
    collected over the source training rows; acc(g,v) = P(v|g) and
    prec(g,v) = P(g|v) combine into score(g,v) = acc * prec, and
    bestCAT(g) is the score-maximising l-value (ties to the more common
    value).  The induced classifier is row -> bestCAT(C_D(row.h)). *)

open Relational

type tagger

val make_tagger : Database.t -> tagger
(** Train the per-type target classifiers on a target database.  The
    text classifier counts over one {!Textsim.Gram_dict} of every
    target text cell's 3-grams. *)

val tag : tagger -> Learn.Classifier.feature -> string option
(** The target column a value most resembles, as "table.attr".  A
    source 3-gram outside the target dictionary takes naive Bayes'
    zero-count term. *)

val teacher_of_tagger : (Learn.Classifier.feature -> string option) -> Clustered_view_gen.teacher
(** A teacher whose predictors go through a tagging function and
    bestCAT.  Each row of a prepared h column is tagged once; every
    round then only collects its TBag. *)

val teacher : Database.t -> Clustered_view_gen.teacher
(** {!teacher_of_tagger} over {!tag} of a tagger trained on the given
    target database. *)

val infer : Database.t -> Infer.t
(** InferCandidateViews backed by {!teacher} of the given target
    database. *)
