(** Immutable q-gram interner: a dense bijection between a fixed gram
    vocabulary and [0 .. size - 1].

    Ids are assigned in [String.compare] order of the grams, so {e id
    order is gram-lexicographic order}: a merge join over two id-sorted
    count arrays visits shared grams in exactly the order the string
    path's gram-sorted merge join does, which is what keeps interned
    similarity scores bit-identical to string-path scores (the float
    accumulation order is the same).

    The dictionary is frozen at construction — there is no [add].  This
    is the "freeze after build" interner lifecycle: {!Gram_index.build}
    collects every target gram, builds the dictionary once on the main
    domain, and worker domains afterwards only call {!find}/{!gram},
    which never mutate, so sharing a dictionary across a
    [Runtime.Pool] fan-out needs no locking.  Grams outside the
    vocabulary simply have no id; callers fall back to the string path
    (or skip them, for dot products against in-vocabulary profiles,
    where out-of-vocabulary grams cannot contribute). *)

type t

val of_grams : string list -> t
(** Build a frozen dictionary of the distinct grams (duplicates are
    fine); ids follow [String.compare] order. *)

val of_docs : string list array -> t * int array array
(** [of_docs docs] builds the dictionary of every gram of [docs] and
    interns each document in one pass: [(dict, ids)] with
    [ids.(i).(j)] the id of the [j]-th gram of [docs.(i)]. *)

val find : t -> string -> int option
val mem : t -> string -> bool

val ids : t -> string list -> int array
(** The id of each gram in order, [-1] for a gram outside the
    vocabulary. *)

val gram : t -> int -> string
(** Inverse of {!find}; raises [Invalid_argument] out of range. *)

val size : t -> int
