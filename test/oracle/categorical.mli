(** Reference categorical-attribute predicate: counts and sorts every
    non-null value through {!Relational.Table.value_counts} before
    judging.  {!Relational.Categorical.is_categorical} must agree. *)

val is_categorical :
  ?params:Relational.Categorical.params -> Relational.Table.t -> string -> bool
