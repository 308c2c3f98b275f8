(** A unified single-label classifier over the cells of one column.

    ClusteredViewGen trains "a classification function C_h" on attribute
    values; depending on the attribute's type this is naive Bayes on
    3-grams or a Gaussian classifier (paper §3.2.3).  This module hides
    the dispatch so the view-generation algorithm is type-agnostic.

    A column is featurized once ({!column}) and then trained and
    classified many times by row index: a text cell's features are its
    string's q-gram ids in a {!Textsim.Coded} column, which tokenizes
    each distinct string once, not once per cell or per train/test
    round. *)

type feature =
  | Text of string
  | Number of float
  | Missing

type column
(** The featurized cells of one column: text as its string's positional
    3-gram ids in a coded column's gram dictionary, numbers as
    floats. *)

val column : (unit -> Textsim.Coded.t) -> feature array -> column
(** [column coded features]: [coded ()] codes the column the features
    come from, so that the string of every [Text s] cell's row is [s]
    (the codes of other rows are not read).  It is called, and its
    grams tokenized, only if some cell is text. *)

type t

val create : ?alpha:float -> column -> t
(** Fresh classifier over the rows of a column; [alpha] is the NB
    smoothing. *)

val train : t -> label:string -> int -> unit
(** Train on the cell at a row index.  [Missing] cells are ignored. *)

val trained : t -> bool
(** True once at least one (non-missing) example has been seen. *)

val labels : t -> string list

val log_posteriors : t -> int -> (string * float) list
(** The text sub-classifier's {!Naive_bayes.log_posteriors} for a text
    cell; [[]] for any other cell and for an external classifier. *)

val classify : t -> int -> string option
(** Predicted label of the cell at a row index.  Numbers may have been
    seen as text and vice versa; each sub-classifier answers only for
    its own feature kind, and when that kind saw no training data the
    other is consulted: text is parsed as a number, and a number is
    classified on the q-grams of its [%g] rendering.  [Missing] yields
    [None]. *)

val of_fun : (int -> string option) -> t
(** Wrap an external prediction function over row indices.  Training on
    such a classifier raises [Invalid_argument]. *)
