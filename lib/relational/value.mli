(** Typed atomic values stored in table cells.

    The paper's data model (§2.1) draws attribute types from
    (string, int, real, ...); we add booleans and an explicit null. *)

type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type ty = Tint | Tfloat | Tstring | Tbool

val type_of : t -> ty option
(** [None] for [Null]. *)

val ty_to_string : ty -> string

val ty_of_string : string -> ty option
(** Parses "int" / "float" / "real" / "string" / "bool" (case-insensitive). *)

val compare : t -> t -> int
(** Total order: Null < Bool < Int ~ Float (numeric comparison) < String.
    Ints and floats compare numerically so [Int 2 = Float 2.0]. *)

val equal : t -> t -> bool

val hash : t -> int
(** Consistent with [equal] (numeric values hash via their float image). *)

val is_null : t -> bool

val to_string : t -> string
(** Display form; [Null] prints as the empty string.  A float prints as
    [Printf]'s [%.1f] when it is integral and below [1e15] in
    magnitude, as its [%g] otherwise (byte for byte). *)

val to_float : t -> float option
(** Numeric view of ints, floats and bools; [None] otherwise. *)

val of_string_as : ty -> string -> t
(** [of_string_as ty s] parses [s] at type [ty]; the empty string becomes
    [Null]; unparseable input also becomes [Null]. *)

val infer : string -> t
(** Best-effort parse: int, then float, then bool, else string; the empty
    string is [Null]. *)

val pp : Format.formatter -> t -> unit
