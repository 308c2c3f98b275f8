(** Oracle-backed candidate-view teachers: the string-keyed
    {!Naive_bayes} behind SrcClassInfer's classifier and TgtClassInfer's
    tagger, re-tokenizing every cell in every round. *)

val src : Ctxmatch.Clustered_view_gen.teacher
val tgt : Relational.Database.t -> Ctxmatch.Clustered_view_gen.teacher
