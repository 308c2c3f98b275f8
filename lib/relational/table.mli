(** Table instances: a schema plus sample rows.

    Rows are arrays of {!Value.t} positionally aligned with the schema.
    Instances in this library are always the *samples* the matcher sees
    (paper §2.1: "given an instance of R (a sample input)"). *)

type row = Value.t array

type t

val make : Schema.t -> row list -> t
(** Raises [Invalid_argument] if any row's arity differs from the
    schema's. *)

val of_rows : Schema.t -> row array -> t
val schema : t -> Schema.t
val name : t -> string
val rows : t -> row array
val row_count : t -> int
val arity : t -> int

val cell : t -> int -> string -> Value.t
(** [cell t i attr] — value of [attr] in row [i]. *)

val column : t -> string -> Value.t array
(** Bag of values of an attribute, v(R, a) in the paper's notation. *)

val column_by_index : t -> int -> Value.t array

val non_null_column : t -> string -> Value.t array
(** Column with nulls removed. *)

val distinct_values : t -> string -> Value.t list
(** Distinct non-null values, sorted by {!Value.compare}. *)

val value_counts : t -> string -> (Value.t * int) list
(** Distinct non-null values with multiplicities, sorted by decreasing
    count then by value. *)

val filter : t -> (row -> bool) -> t
(** Rows satisfying a predicate, same schema. *)

val project : t -> string list -> t
(** Keep listed attributes in the listed order. *)

val rename : t -> string -> t

val append_column : t -> Attribute.t -> (row -> Value.t) -> t
(** Derived column appended on the right. *)

val take : t -> int -> t
(** First [n] rows (all of them if fewer). *)

val sub_by_indices : t -> int array -> t
(** Rows at the given positions, in the given order. *)

val concat_rows : t -> t -> t
(** Union of rows; schemas must be equal. *)

type codes = private { codes : int array; card : int }
(** A column coded densely: row [i] has code [codes.(i)] in
    [\[0, card)], and two rows share a code iff their cells print alike
    under {!Value.to_string}. *)

val column_codes : t -> string -> codes

val codes_unique : rows:int -> codes list -> bool
(** True when no two of the [rows] rows share a code in every listed
    column (columns of the same instance).  Never true when the
    columns' cardinalities multiply to fewer than [rows]. *)

val is_unique : t -> string list -> bool
(** True when the listed attributes form a key of the instance: no two
    rows print alike on all of them ({!Value.to_string}; nulls compare
    as values).  {!codes_unique} over {!column_codes}. *)

val pp : Format.formatter -> t -> unit
(** Compact textual rendering (header + first rows), for debugging. *)
