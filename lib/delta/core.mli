(** One batch of row mutations against a named table.

    A delta is a set of appended rows plus a set of deleted row indices
    (interpreted against the {e old} table, before any append).  This is
    the unit the incremental-maintenance layer patches profiles, distinct
    sets and word sets by — O(delta) instead of O(table). *)

type t

val make :
  table:string -> appends:Relational.Value.t array array -> deletes:int array -> t
(** Delete indices are deduplicated and sorted ascending; appended rows
    are taken as given (validated by {!validate}). *)

val table : t -> string
val appends : t -> Relational.Value.t array array

val deletes : t -> int array
(** Ascending, duplicate-free, relative to the old table's rows. *)

val size : t -> int
(** Appends plus deletes. *)

val validate : t -> Relational.Table.t -> (unit, string) result
(** Arity of every appended row and bounds of every delete index against
    the table the delta claims to apply to. *)

val deleted_rows : t -> Relational.Table.t -> Relational.Value.t array array
(** The rows the delta removes, read from the old table. *)

val apply : t -> Relational.Table.t -> Relational.Table.t
(** Pure application: surviving rows in their original order, appended
    rows after them.  The input table is untouched. *)

val churn : t -> Relational.Table.t -> float
(** [size / max 1 row_count] of the old table — the rebuild-threshold
    metric. *)
