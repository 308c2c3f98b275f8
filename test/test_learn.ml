(* Naive Bayes, Gaussian classifier, unified classifier, evaluation. *)

let trigrams = Textsim.Tokenize.trigrams

(* Naive Bayes counts ids of one dictionary; [ids dict doc] interns a
   bag of grams (-1 for a gram outside the dictionary). *)
let dict_of docs = Textsim.Gram_dict.of_grams (List.concat docs)
let ids = Textsim.Gram_dict.ids

let test_nb_untrained () =
  let nb = Learn.Naive_bayes.create ~size:1 () in
  Alcotest.(check bool) "none before training" true (Learn.Naive_bayes.classify nb [| 0 |] = None);
  Alcotest.(check (list string)) "no labels" [] (Learn.Naive_bayes.labels nb)

let test_nb_separable () =
  let books = [ "the secret history"; "a shadow of empire"; "the forgotten kingdom" ] in
  let music = [ "dance baby tonight"; "midnight groove"; "funky rhythm fever" ] in
  let dict = dict_of (List.map trigrams (books @ music)) in
  let nb = Learn.Naive_bayes.create ~size:(Textsim.Gram_dict.size dict) () in
  List.iter (fun d -> Learn.Naive_bayes.train nb ~label:"book" (ids dict (trigrams d))) books;
  List.iter (fun d -> Learn.Naive_bayes.train nb ~label:"music" (ids dict (trigrams d))) music;
  Alcotest.(check (option string)) "bookish" (Some "book")
    (Learn.Naive_bayes.classify nb (ids dict (trigrams "the secret kingdom")));
  Alcotest.(check (option string)) "musicish" (Some "music")
    (Learn.Naive_bayes.classify nb (ids dict (trigrams "funky dance groove")))

let test_nb_prior_dominates_on_empty_features () =
  let nb = Learn.Naive_bayes.create ~size:2 () in
  (* ids: "aa" = 0, "zz" = 1 *)
  for _ = 1 to 9 do Learn.Naive_bayes.train nb ~label:"common" [| 0 |] done;
  Learn.Naive_bayes.train nb ~label:"rare" [| 1 |];
  Alcotest.(check (option string)) "prior wins with no evidence" (Some "common")
    (Learn.Naive_bayes.classify nb [||])

let test_nb_margin () =
  let nb = Learn.Naive_bayes.create ~size:1 () in
  Learn.Naive_bayes.train nb ~label:"only" [| 0 |];
  match Learn.Naive_bayes.classify_with_margin nb [| 0 |] with
  | Some (l, m) ->
    Alcotest.(check string) "label" "only" l;
    Alcotest.(check bool) "infinite margin" true (m = Float.infinity)
  | None -> Alcotest.fail "expected a label"

let test_nb_deterministic_ties () =
  let nb = Learn.Naive_bayes.create ~size:1 () in
  Learn.Naive_bayes.train nb ~label:"b" [| 0 |];
  Learn.Naive_bayes.train nb ~label:"a" [| 0 |];
  (* same likelihoods, same priors: lexicographic tie-break *)
  Alcotest.(check (option string)) "tie to lexicographic" (Some "a")
    (Learn.Naive_bayes.classify nb [| 0 |])

let test_gnb_separable () =
  let g = Learn.Gaussian_nb.create () in
  let rng = Stats.Rng.create 9 in
  for _ = 1 to 200 do
    Learn.Gaussian_nb.train g ~label:"low" (Stats.Rng.gaussian rng ~mu:10.0 ~sigma:2.0);
    Learn.Gaussian_nb.train g ~label:"high" (Stats.Rng.gaussian rng ~mu:30.0 ~sigma:2.0)
  done;
  Alcotest.(check (option string)) "low" (Some "low") (Learn.Gaussian_nb.classify g 11.0);
  Alcotest.(check (option string)) "high" (Some "high") (Learn.Gaussian_nb.classify g 29.0);
  Alcotest.(check (option string)) "clearly low side" (Some "low")
    (Learn.Gaussian_nb.classify g 15.0)

let test_gnb_class_stats () =
  let g = Learn.Gaussian_nb.create () in
  List.iter (Learn.Gaussian_nb.train g ~label:"x") [ 1.0; 2.0; 3.0 ];
  match Learn.Gaussian_nb.class_stats g "x" with
  | Some (n, mean, _) ->
    Alcotest.(check int) "n" 3 n;
    Alcotest.(check (float 1e-9)) "mean" 2.0 mean
  | None -> Alcotest.fail "expected stats"

let test_gnb_degenerate_sigma () =
  let g = Learn.Gaussian_nb.create () in
  for _ = 1 to 5 do Learn.Gaussian_nb.train g ~label:"const" 7.0 done;
  for _ = 1 to 5 do Learn.Gaussian_nb.train g ~label:"other" 100.0 done;
  (* constant class must still classify its own value *)
  Alcotest.(check (option string)) "spike class" (Some "const") (Learn.Gaussian_nb.classify g 7.0)

let test_gnb_untrained () =
  let g = Learn.Gaussian_nb.create () in
  Alcotest.(check bool) "none" true (Learn.Gaussian_nb.classify g 1.0 = None)

(* A classifier trains and classifies the cells of one featurized
   column by row index; the column codes its text cells. *)
let classifier_over cells =
  let cells = Array.of_list cells in
  let coded =
    Textsim.Coded.make
      (Array.map (function Learn.Classifier.Text s -> Some s | Number _ | Missing -> None) cells)
  in
  Learn.Classifier.create (Learn.Classifier.column (fun () -> coded) cells)

let test_classifier_dispatch () =
  let c =
    classifier_over
      Learn.Classifier.
        [ Text "hello world"; Number 5.0; Text "hello"; Number 5.1; Missing ]
  in
  Learn.Classifier.train c ~label:"text" 0;
  Learn.Classifier.train c ~label:"num" 1;
  Alcotest.(check bool) "trained" true (Learn.Classifier.trained c);
  Alcotest.(check (option string)) "text goes to nb" (Some "text") (Learn.Classifier.classify c 2);
  Alcotest.(check (option string)) "number goes to gaussian" (Some "num")
    (Learn.Classifier.classify c 3);
  Alcotest.(check bool) "missing is none" true (Learn.Classifier.classify c 4 = None)

let test_classifier_missing_ignored_in_training () =
  let c = classifier_over [ Learn.Classifier.Missing ] in
  Learn.Classifier.train c ~label:"x" 0;
  Alcotest.(check bool) "still untrained" false (Learn.Classifier.trained c)

let test_classifier_numeric_text_fallback () =
  (* trained only on numbers; a numeric string should be read as one *)
  let c =
    classifier_over Learn.Classifier.[ Number 1.0; Number 100.0; Text "99"; Text "abc" ]
  in
  Learn.Classifier.train c ~label:"low" 0;
  Learn.Classifier.train c ~label:"high" 1;
  Alcotest.(check (option string)) "parsed" (Some "high") (Learn.Classifier.classify c 2);
  Alcotest.(check bool) "unparsable none" true (Learn.Classifier.classify c 3 = None)

let test_classifier_number_text_fallback () =
  (* trained only on text; a number is classified on the grams of its
     %g rendering ("12", not "12.000000") *)
  let c =
    classifier_over Learn.Classifier.[ Text "12"; Text "12.000000"; Number 12.0 ]
  in
  Learn.Classifier.train c ~label:"g" 0;
  Learn.Classifier.train c ~label:"f" 1;
  Alcotest.(check (option string)) "rendered with %g" (Some "g") (Learn.Classifier.classify c 2)

let test_classifier_external () =
  let c = Learn.Classifier.of_fun (fun _ -> Some "fixed") in
  Alcotest.(check (option string)) "external" (Some "fixed") (Learn.Classifier.classify c 0);
  Alcotest.(check bool) "training rejected" true
    (try
       Learn.Classifier.train c ~label:"x" 0;
       false
     with Invalid_argument _ -> true)

let test_majority_prior () =
  Alcotest.(check (float 1e-9)) "prior" 0.6
    (Learn.Evaluation.majority_prior [| "a"; "a"; "a"; "b"; "c" |]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Learn.Evaluation.majority_prior [||])

let test_evaluation_significant () =
  (* a perfect classifier on a balanced 2-label problem is significant *)
  let items = Array.init 60 (fun i -> if i mod 2 = 0 then ("x", "x") else ("y", "y")) in
  let outcome =
    Learn.Evaluation.test
      ~classify:(fun (f, _) -> Some f)
      ~label_of:snd ~majority_prior:0.5 items
  in
  Alcotest.(check bool) "significant" true outcome.Learn.Evaluation.significant;
  Alcotest.(check (float 1e-9)) "quality 1" 1.0 outcome.Learn.Evaluation.quality

let test_evaluation_insignificant_random () =
  (* predicting the majority label performs exactly as the null *)
  let items = Array.init 60 (fun i -> (i, if i mod 2 = 0 then "x" else "y")) in
  let outcome =
    Learn.Evaluation.test ~classify:(fun _ -> Some "x") ~label_of:snd ~majority_prior:0.5 items
  in
  Alcotest.(check bool) "not significant" false outcome.Learn.Evaluation.significant

let test_evaluation_abstention_counts_as_error () =
  let items = [| ((), "x") |] in
  let outcome =
    Learn.Evaluation.test ~classify:(fun _ -> None) ~label_of:snd ~majority_prior:0.9 items
  in
  Alcotest.(check (float 1e-9)) "zero quality" 0.0 outcome.Learn.Evaluation.quality

let qcheck_gnb_picks_closer_mean =
  QCheck.Test.make ~name:"gaussian picks the closer of two far classes" ~count:100
    (QCheck.float_range 0.0 10.0)
    (fun x ->
      let g = Learn.Gaussian_nb.create () in
      let rng = Stats.Rng.create 3 in
      for _ = 1 to 100 do
        Learn.Gaussian_nb.train g ~label:"near0" (Stats.Rng.gaussian rng ~mu:0.0 ~sigma:1.0);
        Learn.Gaussian_nb.train g ~label:"near100" (Stats.Rng.gaussian rng ~mu:100.0 ~sigma:1.0)
      done;
      Learn.Gaussian_nb.classify g x = Some "near0")

(* The id-keyed naive Bayes against the string-keyed oracle it
   replaced: the same bags, interned through one dictionary, give the
   same posteriors bit for bit and in the same order.  Queries hold
   grams in the dictionary but never trained on ("q1", "q2" when drawn
   into it) and grams outside it ("xx"); bags may be empty; one label
   is possible; mirroring every bag under a twin label makes exact
   ties; training resumes after a first round of queries. *)
let qcheck_nb_matches_oracle =
  let open QCheck.Gen in
  let doc alphabet = list_size (int_bound 5) (oneofl alphabet) in
  let gen =
    let* nlabels = int_range 1 3 in
    let* docs =
      list_size (int_range 1 12)
        (pair (oneofl (List.filteri (fun i _ -> i < nlabels) [ "a"; "b"; "c" ])) (doc [ "aa"; "ab"; "ba"; "bb"; "zz" ]))
    in
    let* mirror = bool in
    let* extra = list_size (int_bound 2) (oneofl [ "q1"; "q2" ]) in
    let* queries = list_size (int_range 1 6) (doc [ "aa"; "ab"; "zz"; "q1"; "q2"; "xx" ]) in
    let* alpha = oneofl [ 1.0; 0.5; 0.1 ] in
    let* cut = int_bound 12 in
    return (docs, mirror, extra, queries, alpha, cut)
  in
  let print (docs, mirror, extra, queries, alpha, cut) =
    let bag d = "[" ^ String.concat ";" d ^ "]" in
    Printf.sprintf "docs=%s mirror=%b extra=%s queries=%s alpha=%g cut=%d"
      (String.concat " " (List.map (fun (l, d) -> l ^ ":" ^ bag d) docs))
      mirror (bag extra) (String.concat " " (List.map bag queries)) alpha cut
  in
  QCheck.Test.make ~name:"naive bayes equals the string-keyed oracle bit for bit" ~count:500
    (QCheck.make ~print gen)
    (fun (docs, mirror, extra, queries, alpha, cut) ->
      let docs =
        if mirror then List.concat_map (fun (l, d) -> [ (l, d); (l ^ "'", d) ]) docs else docs
      in
      let dict = Textsim.Gram_dict.of_grams (extra @ List.concat_map snd docs) in
      let oracle = Oracle.Naive_bayes.create ~alpha () in
      let nb = Learn.Naive_bayes.create ~alpha ~size:(Textsim.Gram_dict.size dict) () in
      let train (label, d) =
        Oracle.Naive_bayes.train oracle ~label d;
        Learn.Naive_bayes.train nb ~label (ids dict d)
      in
      let bits = List.map (fun (label, x) -> (label, Int64.bits_of_float x)) in
      let agree () =
        List.for_all
          (fun q ->
            bits (Oracle.Naive_bayes.log_posteriors oracle q)
            = bits (Learn.Naive_bayes.log_posteriors nb (ids dict q)))
          queries
      in
      List.iteri (fun i d -> if i < cut then train d) docs;
      let before = agree () in
      List.iteri (fun i d -> if i >= cut then train d) docs;
      before && agree ())

let suite =
  [
    Alcotest.test_case "nb untrained" `Quick test_nb_untrained;
    Alcotest.test_case "nb separable vocab" `Quick test_nb_separable;
    Alcotest.test_case "nb prior on no evidence" `Quick test_nb_prior_dominates_on_empty_features;
    Alcotest.test_case "nb margin" `Quick test_nb_margin;
    Alcotest.test_case "nb deterministic ties" `Quick test_nb_deterministic_ties;
    Alcotest.test_case "gaussian separable" `Quick test_gnb_separable;
    Alcotest.test_case "gaussian class stats" `Quick test_gnb_class_stats;
    Alcotest.test_case "gaussian degenerate sigma" `Quick test_gnb_degenerate_sigma;
    Alcotest.test_case "gaussian untrained" `Quick test_gnb_untrained;
    Alcotest.test_case "classifier dispatch" `Quick test_classifier_dispatch;
    Alcotest.test_case "classifier ignores missing" `Quick test_classifier_missing_ignored_in_training;
    Alcotest.test_case "classifier numeric-text fallback" `Quick test_classifier_numeric_text_fallback;
    Alcotest.test_case "classifier number-as-text fallback" `Quick test_classifier_number_text_fallback;
    Alcotest.test_case "classifier external" `Quick test_classifier_external;
    Alcotest.test_case "majority prior" `Quick test_majority_prior;
    Alcotest.test_case "evaluation significant" `Quick test_evaluation_significant;
    Alcotest.test_case "evaluation insignificant" `Quick test_evaluation_insignificant_random;
    Alcotest.test_case "evaluation abstention" `Quick test_evaluation_abstention_counts_as_error;
    QCheck_alcotest.to_alcotest qcheck_gnb_picks_closer_mean;
    QCheck_alcotest.to_alcotest qcheck_nb_matches_oracle;
  ]
