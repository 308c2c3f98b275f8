(** Select-project (SP) queries, the view-definition language of §4:
    [select Y from R where c].  [select = None] keeps all attributes. *)

open Relational

type t = {
  select : string list option;
  from : string;
  where : Condition.t;
}

val select_all : string -> Condition.t -> t
val select_some : string list -> string -> Condition.t -> t

val eval : t -> Table.t -> Table.t
(** Run against an instance of the base table; the result keeps the base
    table's name (rename it as needed).  Raises [Invalid_argument] when
    the instance's name differs from [from]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
