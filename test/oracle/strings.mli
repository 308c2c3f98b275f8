(** The string path of the artefacts coded columns count
    ({!Textsim.Coded}): each artefact built by tokenizing the display
    strings of the rows it covers, the way the matcher built them
    before columns were coded. *)

val cells : Relational.Table.t -> string -> int array -> string list
(** [cells table attr rows]: the [Value.to_string] display strings of
    the non-null cells of [attr] at [rows], in row order. *)

val profile : string list -> Textsim.Profile.t
(** The q-gram profile of the strings ({!Textsim.Profile.of_strings}):
    what each partition group's profile was built as. *)

val distinct : string list -> string list
(** The sorted distinct strings ([List.sort_uniq String.compare]). *)

val word_list : string list -> string list
(** The sorted distinct words of the strings. *)

val classifier_grams : Learn.Classifier.feature array -> Textsim.Gram_dict.t * int array array
(** The classifier column's row tokenization: each text cell's 3-grams
    interned in one dictionary of the column's text grams, positional
    ids per row ([[||]] for other cells). *)

val log_posteriors :
  Learn.Classifier.feature array ->
  labels:string array ->
  train:int array ->
  int ->
  (string * float) list
(** The naive Bayes log posteriors of a text cell under
    {!classifier_grams}' features, trained on the [train] rows' text
    cells with [labels]; [[]] for other cells. *)
