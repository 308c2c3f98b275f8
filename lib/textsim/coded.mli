(** A coded column: the cells of one column coded by their distinct
    string, with each distinct string tokenized once, and only for the
    artefacts asked for.

    Row [i]'s code is the id of its string among the column's distinct
    strings, and codes follow [String.compare] order of the strings.
    The column's 3-grams and words are tokenized on first use, each
    distinct string once, into one column dictionary per kind whose ids
    follow gram (word) order.  Every artefact over a set of rows is
    then integer counting: a code's multiplicity among the rows times
    its grams.  Because ids follow string order, reading ids back in
    ascending order visits grams, words and values in exactly the
    order the string artefacts sort them.

    Safe to share across domains: each tokenization runs once, under
    the column's lock, whichever domain asks first.  A column of
    numbers that only ever needs its distinct values is never
    tokenized. *)

type t

val make : string option array -> t
(** [make cells] codes a column from its cells' strings, [None] for a
    null cell (which gets no code).  Nothing is tokenized yet. *)

val size : t -> int
(** Number of distinct strings. *)

val values : t -> Gram_dict.t
(** The distinct strings, as a dictionary whose ids are the codes. *)

val code : t -> int -> int
(** Row [i]'s code; [-1] for a null cell. *)

val grams : t -> Gram_dict.t
(** Every 3-gram of every distinct string, ids in gram order. *)

val positional : t -> int -> int array
(** [positional t code]: the ids of the code's string's 3-grams, in
    {!Tokenize.trigrams} order (repeats included). *)

val gram_counts : ?rows:int array -> t -> int array * int array
(** [(ids, counts)]: the 3-gram bag of the cells at [rows] (default:
    every row), ids ascending, counts positive.  Equal, gram for gram,
    to the bag {!Profile.of_strings} accumulates over those cells'
    strings. *)

val profile : t -> Profile.t
(** The 3-gram profile of the column, built from {!gram_counts}: its
    counts, total, norm and every similarity equal those of
    {!Profile.of_strings} over the non-null cells' strings, bit for
    bit. *)

val value_ids : ?rows:int array -> t -> int array
(** The codes of the cells at [rows] (default: every row), ascending,
    each once: the ids, in {!values}, of the sorted distinct strings. *)

val words : t -> Gram_dict.t
(** Every word ({!Tokenize.words}) of every distinct string, ids in
    [String.compare] order. *)

val word_ids : ?rows:int array -> t -> int array
(** The ids, in {!words}, of the distinct words of the cells at [rows]
    (default: every row), ascending. *)
