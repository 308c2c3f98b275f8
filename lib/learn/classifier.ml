type feature =
  | Text of string
  | Number of float
  | Missing

type column = {
  coded : Textsim.Coded.t Lazy.t;  (** codes the text cells; its grams are their features *)
  features : feature array;
  has_text : bool;  (** some cell is text: only then is [coded] forced *)
}

let column coded features =
  let has_text = Array.exists (function Text _ -> true | Number _ | Missing -> false) features in
  { coded = Lazy.from_fun coded; features; has_text }

(* The positional 3-gram ids of a text cell's string. *)
let grams col i =
  let coded = Lazy.force col.coded in
  Textsim.Coded.positional coded (Textsim.Coded.code coded i)

type core = {
  col : column;
  text : Naive_bayes.t;
  numeric : Gaussian_nb.t;
}

type t =
  | Trainable of core
  | External of (int -> string option)

let create ?alpha col =
  let size =
    if col.has_text then Textsim.Gram_dict.size (Textsim.Coded.grams (Lazy.force col.coded)) else 0
  in
  Trainable { col; text = Naive_bayes.create ?alpha ~size (); numeric = Gaussian_nb.create () }

let train t ~label i =
  match t with
  | External _ -> invalid_arg "Classifier.train: external classifier"
  | Trainable core -> (
    match core.col.features.(i) with
    | Missing -> ()
    | Text _ -> Naive_bayes.train core.text ~label (grams core.col i)
    | Number x -> Gaussian_nb.train core.numeric ~label x)

let trained = function
  | External _ -> true
  | Trainable core ->
    Naive_bayes.document_count core.text > 0 || Gaussian_nb.sample_count core.numeric > 0

let labels = function
  | External _ -> []
  | Trainable core ->
    List.sort_uniq String.compare (Naive_bayes.labels core.text @ Gaussian_nb.labels core.numeric)

let log_posteriors t i =
  match t with
  | Trainable core -> (
    match core.col.features.(i) with
    | Text _ -> Naive_bayes.log_posteriors core.text (grams core.col i)
    | Number _ | Missing -> [])
  | External _ -> []

let classify t i =
  match t with
  | External f -> f i
  | Trainable core -> (
    match core.col.features.(i) with
    | Missing -> None
    | Text s ->
      if Naive_bayes.document_count core.text > 0 then
        Naive_bayes.classify core.text (grams core.col i)
      else (
        (* All training data was numeric; try to read the text as a number. *)
        match float_of_string_opt (String.trim s) with
        | Some x -> Gaussian_nb.classify core.numeric x
        | None -> None)
    | Number x ->
      if Gaussian_nb.sample_count core.numeric > 0 then Gaussian_nb.classify core.numeric x
      else if Naive_bayes.document_count core.text = 0 then None (* nothing trained at all *)
      else
        Naive_bayes.classify core.text
          (Textsim.Gram_dict.ids
             (Textsim.Coded.grams (Lazy.force core.col.coded))
             (Textsim.Tokenize.trigrams (Printf.sprintf "%g" x))))

let of_fun f = External f
