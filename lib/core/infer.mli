(** The InferCandidateViews interface (paper Fig. 5 line 5).

    Given a source table and the standard matches found for it, produce
    candidate view families.  Implementations: {!Naive_infer},
    {!Src_class_infer}, {!Tgt_class_infer}. *)

open Relational

type t = {
  infer_name : string;
  infer :
    ?coded:(string -> Textsim.Coded.t) ->
    Stats.Rng.t ->
    Config.t ->
    source_table:Table.t ->
    matches:Matching.Schema_match.t list ->
    View.family list;
      (** [matches] are the standard matches originating from the table;
          when empty no views are returned (Fig. 5: "no conditions will
          be returned if M is empty").  [coded] gives the coded column
          of a source attribute ({!Matching.Standard_match.coded}), so
          an algorithm that featurizes source values shares the
          tokenization of StandardMatch; without it, such an algorithm
          codes the columns it reads itself, with the same builder
          ({!Matching.Profile_cache.code}), and infers the same
          views. *)
}

val views_of_families : View.family list -> View.t list
(** All views of all families, deduplicated by condition. *)
