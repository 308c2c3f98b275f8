let teacher =
  {
    Clustered_view_gen.teacher_name = "src-class";
    prepare =
      (fun table ~h ->
        let column = Learn.Classifier.column (Clustered_view_gen.column_features table ~h) in
        fun ~labels ~train ->
          let classifier = Learn.Classifier.create column in
          Array.iter (fun i -> Learn.Classifier.train classifier ~label:labels.(i) i) train;
          Learn.Classifier.classify classifier);
  }

let infer =
  {
    Infer.infer_name = "src-class";
    infer =
      (fun rng config ~source_table ~matches ->
        if matches = [] then []
        else Clustered_view_gen.generate rng config teacher source_table);
  }
