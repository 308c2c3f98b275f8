(* Candidate-view teachers that prepare nothing per column: every round
   re-reads its rows, re-tokenizes every text cell and counts grams in
   string-keyed tables. *)
open Relational

let feature_of = Ctxmatch.Clustered_view_gen.feature_of
let qgrams = Textsim.Tokenize.trigrams

(* C_h: naive Bayes on 3-grams for text, a Gaussian for numbers, and the
   two cross-type fallbacks. *)
type classifier = {
  text : Naive_bayes.t;
  numeric : Learn.Gaussian_nb.t;
}

let train c ~label = function
  | Learn.Classifier.Missing -> ()
  | Learn.Classifier.Text s -> Naive_bayes.train c.text ~label (qgrams s)
  | Learn.Classifier.Number x -> Learn.Gaussian_nb.train c.numeric ~label x

let classify c = function
  | Learn.Classifier.Missing -> None
  | Learn.Classifier.Text s -> (
    if Naive_bayes.document_count c.text > 0 then Naive_bayes.classify c.text (qgrams s)
    else
      match float_of_string_opt (String.trim s) with
      | Some x -> Learn.Gaussian_nb.classify c.numeric x
      | None -> None)
  | Learn.Classifier.Number x ->
    if Learn.Gaussian_nb.sample_count c.numeric > 0 then Learn.Gaussian_nb.classify c.numeric x
    else Naive_bayes.classify c.text (qgrams (Printf.sprintf "%g" x))

let src =
  {
    Ctxmatch.Clustered_view_gen.teacher_name = "src-class-oracle";
    prepare =
      (fun table ~h ~labels ~train:rows_in ->
        let rows = Table.rows table in
        let c = { text = Naive_bayes.create (); numeric = Learn.Gaussian_nb.create () } in
        Array.iter (fun i -> train c ~label:labels.(i) (feature_of table ~h rows.(i))) rows_in;
        fun i -> classify c (feature_of table ~h rows.(i)));
  }

(* TgtClassInfer's tagger, string-keyed. *)
let tagger target_db =
  let c = { text = Naive_bayes.create (); numeric = Learn.Gaussian_nb.create () } in
  List.iter
    (fun table ->
      Array.iter
        (fun (attr : Attribute.t) ->
          let label = Printf.sprintf "%s.%s" (Table.name table) attr.name in
          Array.iter
            (fun v ->
              match v with
              | Value.Null -> ()
              | Value.Int n -> Learn.Gaussian_nb.train c.numeric ~label (float_of_int n)
              | Value.Float f -> Learn.Gaussian_nb.train c.numeric ~label f
              | Value.String s -> Naive_bayes.train c.text ~label (qgrams s)
              | Value.Bool b -> Naive_bayes.train c.text ~label (qgrams (string_of_bool b)))
            (Table.column table attr.name))
        (Schema.attributes (Table.schema table)))
    (Database.tables target_db);
  function
  | Learn.Classifier.Missing -> None
  | Learn.Classifier.Text s -> Naive_bayes.classify c.text (qgrams s)
  | Learn.Classifier.Number x -> Learn.Gaussian_nb.classify c.numeric x

let tgt target_db = Ctxmatch.Tgt_class_infer.teacher_of_tagger (tagger target_db)
