(** Boolean selection conditions attached to contextual matches.

    The paper (§2.2) classifies conditions by the number of attributes
    they mention: a simple condition is [a = v] (a 1-condition); a simple
    disjunctive condition is [a IN {v1..vk}]; conjunctive and general
    k-conditions combine these. *)

type t =
  | True
  | Eq of string * Value.t  (** simple condition: attribute = constant *)
  | In of string * Value.t list  (** simple disjunctive condition *)
  | And of t * t
  | Or of t * t
  | Not of t

val eval : t -> Schema.t -> Table.row -> bool
(** Evaluate against a row; comparisons with null are false.  Raises
    [Not_found] if the condition mentions an attribute absent from the
    schema. *)

val attributes : t -> string list
(** Attribute names mentioned, sorted, without duplicates. *)

val arity : t -> int
(** The paper's k: number of distinct attributes mentioned (0 for
    [True]). *)

val is_simple : t -> bool
(** True for [Eq] (and [True]). *)

val is_simple_disjunctive : t -> bool
(** True for [True], [Eq], [In] and [Or]-combinations over a single
    attribute. *)

val conjoin : t -> t -> t
(** Conjunction with [True] simplification. *)

val disjoin_values : string -> Value.t list -> t
(** [a IN vs], simplified to [Eq] when singleton and to [True]'s negation
    ([In (a, [])], never true) when empty. *)

val selected_values : t -> (string * Value.t list) option
(** When the condition is a simple or simple-disjunctive condition over
    one attribute (possibly via [Or]/[In] nesting), return the attribute
    and the sorted list of selected values. *)

val normalize : t -> t
(** Flatten nested [Or]-of-[Eq] over a single attribute into [In]; sort
    [In] value lists; drop [And True]. *)

val equal : t -> t -> bool
(** Structural equality after {!normalize}. *)

val to_string : t -> string
(** SQL-ish rendering, e.g. ["type = 1"] or ["type IN (1, 2)"].  A
    string value that is empty or contains [,], [(], [)] or ['] is
    single-quoted, with ['] doubled (["k IN ('a, b', c)"]), as
    {!Condition_parser} reads it; every other value prints bare.  So a
    value such as ["a, b"] never prints like the two values [a] and
    [b]. *)

val pp : Format.formatter -> t -> unit
