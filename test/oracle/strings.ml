open Relational

let cells table attr rows =
  let col = Table.column table attr in
  Array.to_list rows
  |> List.filter_map (fun i ->
         let v = col.(i) in
         if Value.is_null v then None else Some (Value.to_string v))

let profile strs = Textsim.Profile.of_strings strs
let distinct strs = List.sort_uniq String.compare strs
let word_list strs = List.concat_map Textsim.Tokenize.words strs |> List.sort_uniq String.compare

let classifier_grams features =
  Textsim.Gram_dict.of_docs
    (Array.map
       (function
         | Learn.Classifier.Text s -> Textsim.Tokenize.trigrams s
         | Learn.Classifier.Number _ | Learn.Classifier.Missing -> [])
       features)

let log_posteriors features ~labels ~train i =
  let dict, grams = classifier_grams features in
  let nb = Learn.Naive_bayes.create ~size:(Textsim.Gram_dict.size dict) () in
  Array.iter
    (fun r ->
      match features.(r) with
      | Learn.Classifier.Text _ -> Learn.Naive_bayes.train nb ~label:labels.(r) grams.(r)
      | Learn.Classifier.Number _ | Learn.Classifier.Missing -> ())
    train;
  match features.(i) with
  | Learn.Classifier.Text _ -> Learn.Naive_bayes.log_posteriors nb grams.(i)
  | Learn.Classifier.Number _ | Learn.Classifier.Missing -> []
