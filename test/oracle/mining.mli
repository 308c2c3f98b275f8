(** Reference constraint mining: the string-keyed uniqueness check and
    the miner that re-mines a relation's keys wherever it needs them —
    {!mine_keys} once per relation, again at width 1 for every FK
    candidate set, and again for the base of every contextual FK.
    {!Mapping.Mining} must return equal lists, in the same order. *)

open Relational
open Mapping

val is_unique : Table.t -> string list -> bool
(** No two rows print alike ({!Value.to_string}) on all the listed
    attributes; every call keys a fresh hash table by string lists. *)

val mine_keys : ?max_width:int -> Relation.t -> Constraints.key list
val mine_foreign_keys : Relation.t list -> Constraints.foreign_key list
val mine_contextual_fks : Relation.t list -> Constraints.contextual_fk list
val mine : Relation.t list -> Constraints.t list
