(** SrcClassInfer (paper §3.2.3): the classifier C_h is trained directly
    on the source values of h — naive Bayes over 3-grams for text,
    a Gaussian class-conditional model for numbers.  The 3-grams of h
    come from its coded column: the one inference is handed
    ([Infer.t]'s [coded]), shared with StandardMatch, or else one coded
    by {!Matching.Profile_cache.code}, which is also what a fault
    injected at the shared lookup falls back to. *)

val teacher : Clustered_view_gen.teacher
(** The teacher over columns it codes itself. *)

val infer : Infer.t
