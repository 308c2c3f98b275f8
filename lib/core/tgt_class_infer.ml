open Relational

type tagger = {
  dict : Textsim.Gram_dict.t;  (** every target text cell's 3-grams *)
  text : Learn.Naive_bayes.t;
  numeric : Learn.Gaussian_nb.t;
}

let make_tagger target_db =
  let numeric = Learn.Gaussian_nb.create () in
  let docs = ref [] in
  List.iter
    (fun table ->
      let table_name = Table.name table in
      Array.iter
        (fun (attr : Attribute.t) ->
          let label = Printf.sprintf "%s.%s" table_name attr.name in
          Array.iter
            (fun v ->
              match v with
              | Value.Null -> ()
              | Value.Int n -> Learn.Gaussian_nb.train numeric ~label (float_of_int n)
              | Value.Float f -> Learn.Gaussian_nb.train numeric ~label f
              | Value.String s -> docs := (label, Textsim.Tokenize.trigrams s) :: !docs
              | Value.Bool b ->
                docs := (label, Textsim.Tokenize.trigrams (string_of_bool b)) :: !docs)
            (Table.column table attr.name))
        (Schema.attributes (Table.schema table)))
    (Database.tables target_db);
  let docs = Array.of_list (List.rev !docs) in
  let dict, ids = Textsim.Gram_dict.of_docs (Array.map snd docs) in
  let text = Learn.Naive_bayes.create ~size:(Textsim.Gram_dict.size dict) () in
  Array.iteri (fun i (label, _) -> Learn.Naive_bayes.train text ~label ids.(i)) docs;
  { dict; text; numeric }

let tag tagger feature =
  match feature with
  | Learn.Classifier.Missing -> None
  | Learn.Classifier.Text s ->
    Learn.Naive_bayes.classify tagger.text
      (Textsim.Gram_dict.ids tagger.dict (Textsim.Tokenize.trigrams s))
  | Learn.Classifier.Number x -> Learn.Gaussian_nb.classify tagger.numeric x

(* TBag statistics: for tag g and label v, score(g,v) = P(v|g) * P(g|v);
   bestCAT(g) maximises the score with ties to the more common label. *)
module Tbag = struct
  type t = {
    pair_counts : (string * string, int) Hashtbl.t;
    tag_counts : (string, int) Hashtbl.t;
    label_counts : (string, int) Hashtbl.t;
    mutable total : int;
  }

  let create () =
    {
      pair_counts = Hashtbl.create 64;
      tag_counts = Hashtbl.create 16;
      label_counts = Hashtbl.create 16;
      total = 0;
    }

  let bump table key =
    let n = try Hashtbl.find table key with Not_found -> 0 in
    Hashtbl.replace table key (n + 1)

  let observe t ~tag ~label =
    bump t.pair_counts (tag, label);
    bump t.tag_counts tag;
    bump t.label_counts label;
    t.total <- t.total + 1

  let count table key = try Hashtbl.find table key with Not_found -> 0

  let score t ~tag ~label =
    let c_gv = count t.pair_counts (tag, label) in
    let c_g = count t.tag_counts tag in
    let c_v = count t.label_counts label in
    if c_g = 0 || c_v = 0 then 0.0
    else begin
      let acc = float_of_int c_gv /. float_of_int c_g in
      let prec = float_of_int c_gv /. float_of_int c_v in
      acc *. prec
    end

  let most_common_label t =
    Hashtbl.fold
      (fun label n best ->
        match best with
        | Some (_, bn) when bn > n -> best
        | Some (bl, bn) when bn = n && String.compare bl label <= 0 -> best
        | Some _ | None -> Some (label, n))
      t.label_counts None
    |> Option.map fst

  let best_cat t tag =
    let candidates =
      Hashtbl.fold
        (fun label n acc -> (label, score t ~tag ~label, n) :: acc)
        t.label_counts []
    in
    let sorted =
      List.sort
        (fun (l1, s1, n1) (l2, s2, n2) ->
          match Float.compare s2 s1 with
          | 0 -> ( match Int.compare n2 n1 with 0 -> String.compare l1 l2 | c -> c)
          | c -> c)
        candidates
    in
    match sorted with
    | (label, s, _) :: _ when s > 0.0 -> Some label
    | (_, _, _) :: _ | [] -> most_common_label t
end

let teacher_of_tagger tag =
  {
    Clustered_view_gen.teacher_name = "tgt-class";
    prepare =
      (fun table ~h ->
        (* a row's tag does not depend on the round: tag each row once *)
        let tags = Array.map tag (Clustered_view_gen.column_features table ~h) in
        fun ~labels ~train ->
          let tbag = Tbag.create () in
          Array.iter
            (fun i ->
              match tags.(i) with
              | None -> ()
              | Some g -> Tbag.observe tbag ~tag:g ~label:labels.(i))
            train;
          fun i ->
            match tags.(i) with
            | None -> Tbag.most_common_label tbag
            | Some g -> Tbag.best_cat tbag g);
  }

let teacher target_db = teacher_of_tagger (tag (make_tagger target_db))

let infer target_db =
  let teacher = teacher target_db in
  {
    Infer.infer_name = "tgt-class";
    infer =
      (fun ?coded:_ rng config ~source_table ~matches ->
        if matches = [] then []
        else Clustered_view_gen.generate rng config teacher source_table);
  }
