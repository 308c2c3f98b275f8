(** Immutable q-gram interner: a dense bijection between a fixed gram
    vocabulary and [0 .. size - 1].

    Ids are assigned in [String.compare] order of the grams, so {e id
    order is gram-lexicographic order}: a fold over id-sorted counts
    visits grams in exactly the order the gram-sorted merge join of
    {!Profile.cosine} does, which is what keeps id-space similarity
    scores bit-identical to it (the float accumulation order is the
    same).

    The dictionary is frozen at construction — there is no [add].
    The coded columns and the partition families build theirs once, and
    worker domains afterwards only call {!find}/{!gram}, which never
    mutate, so sharing a dictionary across a [Runtime.Pool] fan-out
    needs no locking.  Grams outside the vocabulary simply have no id;
    a dot product against in-vocabulary profiles skips them, since
    they cannot contribute. *)

type t

val of_grams : string list -> t
(** Build a frozen dictionary of the distinct grams (duplicates are
    fine); ids follow [String.compare] order. *)

val of_docs : string list array -> t * int array array
(** [of_docs docs] builds the dictionary of every gram of [docs] and
    interns each document in one pass: [(dict, ids)] with
    [ids.(i).(j)] the id of the [j]-th gram of [docs.(i)]. *)

val find : t -> string -> int option

val ids : t -> string list -> int array
(** The id of each gram in order, [-1] for a gram outside the
    vocabulary. *)

val gram : t -> int -> string
(** Inverse of {!find}; raises [Invalid_argument] out of range. *)

val size : t -> int
