(** Sound inference rules for propagating constraints from base tables
    to views (paper §4.2).

    Theorem 4.1 shows the general propagation problem is undecidable for
    SP views, so the paper (and we) combine mining on samples with a
    sound-but-incomplete rule set:

    - [selection-propagation]: a key of R all of whose attributes
      survive into V is a key of V (selection only removes rows).
    - [contextual-propagation]: if R[X, a] is a key and V selects a = v,
      then V[X] is a key of V.
    - [view-referencing]: if R[X] is a key of R, a ∈ X, V selects
      a = v1 or ... or a = vn, and the domain of a is exactly
      {v1..vn}, then R[X] ⊆ V[X] (the base references the view).
    - [contextual-constraint]: if R[X, a] is a key and V selects a = v,
      then V[X, a = v] ⊆ R[X, a] is a contextual foreign key.
    - [fk-propagation]: a base foreign key R[Y] ⊆ R'[X] with
      Y ⊆ att(V) propagates to V[Y] ⊆ R'[X]. *)

type derived = {
  constr : Constraints.t;
  rule : string;  (** name of the inference rule that produced it *)
}

val derive : relations:Relation.t list -> base:Constraints.t list -> derived list
(** Apply all rules to every view relation.  Domain checks for
    view-referencing use the base relation's sample instance.  Results
    are deduplicated. *)
