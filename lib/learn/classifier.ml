type feature =
  | Text of string
  | Number of float
  | Missing

type column = {
  q : int;
  dict : Textsim.Gram_dict.t;
  features : feature array;
  grams : int array array;  (** positional q-gram ids of each text cell *)
}

let column ?(q = 3) features =
  let dict, grams =
    Textsim.Gram_dict.of_docs
      (Array.map
         (function Text s -> Textsim.Tokenize.qgrams q s | Number _ | Missing -> [])
         features)
  in
  { q; dict; features; grams }

type core = {
  col : column;
  text : Naive_bayes.t;
  numeric : Gaussian_nb.t;
}

type t =
  | Trainable of core
  | External of (int -> string option)

let create ?alpha col =
  Trainable
    {
      col;
      text = Naive_bayes.create ?alpha ~size:(Textsim.Gram_dict.size col.dict) ();
      numeric = Gaussian_nb.create ();
    }

let train t ~label i =
  match t with
  | External _ -> invalid_arg "Classifier.train: external classifier"
  | Trainable core -> (
    match core.col.features.(i) with
    | Missing -> ()
    | Text _ -> Naive_bayes.train core.text ~label core.col.grams.(i)
    | Number x -> Gaussian_nb.train core.numeric ~label x)

let trained = function
  | External _ -> true
  | Trainable core ->
    Naive_bayes.document_count core.text > 0 || Gaussian_nb.sample_count core.numeric > 0

let labels = function
  | External _ -> []
  | Trainable core ->
    List.sort_uniq String.compare (Naive_bayes.labels core.text @ Gaussian_nb.labels core.numeric)

let classify t i =
  match t with
  | External f -> f i
  | Trainable core -> (
    match core.col.features.(i) with
    | Missing -> None
    | Text s ->
      if Naive_bayes.document_count core.text > 0 then
        Naive_bayes.classify core.text core.col.grams.(i)
      else (
        (* All training data was numeric; try to read the text as a number. *)
        match float_of_string_opt (String.trim s) with
        | Some x -> Gaussian_nb.classify core.numeric x
        | None -> None)
    | Number x ->
      if Gaussian_nb.sample_count core.numeric > 0 then Gaussian_nb.classify core.numeric x
      else
        Naive_bayes.classify core.text
          (Textsim.Gram_dict.ids core.col.dict
             (Textsim.Tokenize.qgrams core.col.q (Printf.sprintf "%g" x))))

let of_fun f = External f
