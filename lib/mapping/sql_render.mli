(** Render a mapping plan as SQL text.

    Clio's practical output is a transformation query; this module
    prints the equivalent of what {!Executor} runs: CREATE VIEW
    statements for the contextual views, and one INSERT ... SELECT per
    logical-table component, with outer joins on the association keys
    and Skolem placeholders for unmapped non-null target attributes.
    The text targets a generic SQL dialect and is meant for human
    review / porting, not for execution by this library. *)

val quote_ident : string -> string
(** Double-quote an identifier, escaping embedded quotes. *)

val literal : Relational.Value.t -> string
(** SQL literal for a value; NULL for nulls; strings single-quoted with
    doubling; floats in the shortest form ([%.15g] or [%.17g]) that
    reads back as the same float. *)

val condition : Relational.Condition.t -> string
(** SQL boolean expression. *)

val view_definition : Relation.t -> string option
(** [CREATE VIEW name AS SELECT ... FROM base WHERE ...] for a view
    relation; [None] for base relations. *)

val component_select : Mapping_gen.plan -> Mapping_gen.target_mapping ->
  Mapping_gen.component -> string
(** The SELECT implementing one logical-table component of a target
    mapping.  A target attribute no correspondence feeds selects the
    string literal ['sk_<attr>(...)'] as its Skolem placeholder. *)

val target_insert : Mapping_gen.plan -> Mapping_gen.target_mapping -> string
(** INSERT INTO target ... with the UNION ALL of the component
    SELECTs; an empty mapping renders as a comment. *)

val script : Mapping_gen.plan -> string
(** The full script: all view definitions and all inserts. *)
