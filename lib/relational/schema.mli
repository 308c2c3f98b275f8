(** Table schemas: a named, ordered list of attributes. *)

type t

val make : string -> Attribute.t list -> t
(** Raises [Invalid_argument] on duplicate attribute names. *)

val name : t -> string
val attributes : t -> Attribute.t array
val arity : t -> int

val attribute : t -> string -> Attribute.t
(** Lookup by name; raises [Not_found]. *)

val index_of : t -> string -> int
(** Column position of an attribute; raises [Not_found]. *)

val index_of_opt : t -> string -> int option
val mem : t -> string -> bool
val attribute_names : t -> string list

val rename : t -> string -> t
(** New schema identical up to the table name. *)

val project : t -> string list -> t
(** Keep only the listed attributes, in the listed order.  Raises
    [Not_found] on unknown names. *)

val add_attribute : t -> Attribute.t -> t
(** Append a column; raises [Invalid_argument] on a duplicate name. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
