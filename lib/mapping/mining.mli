(** Constraint mining from sample data (§4.2 method (a): "employ
    constraint mining tools on sample data to discover keys and
    (contextual) foreign keys on views, as Clio does").

    Mining is necessarily heuristic — a key that holds on the sample may
    not hold in general — but it is how Clio seeds its join analysis. *)


val mine_keys : ?max_width:int -> Relation.t -> Constraints.key list
(** Minimal keys of the relation instance up to [max_width] attributes
    (default 2): all unique single attributes, plus unique pairs none of
    whose members is already a key.  Cells are equal when they print
    alike ({!Relational.Table.is_unique}); each column is coded once
    ({!Relational.Table.column_codes}) and every candidate is checked
    over those codes.  Counts [mapping.keys_mined] once per call. *)

val mine_foreign_keys :
  (Relation.t * Constraints.key list) list -> Constraints.foreign_key list
(** Single-attribute inclusion dependencies into single-attribute keys
    of other relations, each relation paired with its keys from
    {!mine_keys} (the single keys are the width-1 entries).  Requires
    the referencing column to be non-trivial (>= 1 non-null value) and
    complete containment on the sample. *)

val mine_contextual_fks :
  (Relation.t * Constraints.key list) list -> Constraints.contextual_fk list
(** For every view V = select ... from R where a = v (or a IN vs, one
    cfk per value) and every key [X, a] of the base (as paired with R)
    in which the selection attribute participates: check
    V[X, a = v] ⊆ R[X, a] on the sample.  This complements the
    inference rules of {!Propagation}. *)

val mine : Relation.t list -> Constraints.t list
(** Everything above, mining each relation's keys once. *)
