(* The h column's features come from its coded column: the model's,
   shared with StandardMatch's profiles and families, when inference is
   handed one, else one coded here by the same builder.  A fault
   injected at the shared lookup leaves h to be coded here too, so it
   costs inference nothing: the views are those of an unfaulted run.  A
   column without text is never coded. *)
let teacher_of coded =
  {
    Clustered_view_gen.teacher_name = "src-class";
    prepare =
      (fun table ~h ->
        let own () = Matching.Profile_cache.code table h in
        let coded () =
          match coded with
          | None -> own ()
          | Some coded -> ( try coded h with Robust.Fault.Injected _ -> own ())
        in
        let column = Learn.Classifier.column coded (Clustered_view_gen.column_features table ~h) in
        fun ~labels ~train ->
          let classifier = Learn.Classifier.create column in
          Array.iter (fun i -> Learn.Classifier.train classifier ~label:labels.(i) i) train;
          Learn.Classifier.classify classifier);
  }

let teacher = teacher_of None

let infer =
  {
    Infer.infer_name = "src-class";
    infer =
      (fun ?coded rng config ~source_table ~matches ->
        if matches = [] then []
        else Clustered_view_gen.generate rng config (teacher_of coded) source_table);
  }
