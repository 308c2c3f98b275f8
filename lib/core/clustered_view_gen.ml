open Relational

type trainer = labels:string array -> train:int array -> int -> string option

type teacher = {
  teacher_name : string;
  prepare : Table.t -> h:string -> trainer;
}

type verdict = {
  h_attr : string;
  l_attr : string;
  quality : float;
  null_likelihood : float;
  significant : bool;
  confusion : Stats.Confusion.t;
}

let feature_of_value = function
  | Value.Null -> Learn.Classifier.Missing
  | Value.Int n -> Learn.Classifier.Number (float_of_int n)
  | Value.Float f -> Learn.Classifier.Number f
  | Value.String s -> Learn.Classifier.Text s
  | Value.Bool b -> Learn.Classifier.Text (string_of_bool b)

let feature_of table ~h row = feature_of_value row.(Schema.index_of (Table.schema table) h)

let column_features table ~h = Array.map feature_of_value (Table.column table h)

(* The state one [generate] call shares across its rounds: each h column
   is prepared (featurized) at most once, and dropped with the call. *)
type context = {
  teacher : teacher;
  table : Table.t;
  trainers : (string, trainer) Hashtbl.t;
}

let context teacher table = { teacher; table; trainers = Hashtbl.create 8 }

let trainer ctx h =
  match Hashtbl.find_opt ctx.trainers h with
  | Some t -> t
  | None ->
    let t = ctx.teacher.prepare ctx.table ~h in
    Hashtbl.add ctx.trainers h t;
    t

let evaluate_in ctx rng (config : Config.t) ~h ~l ~label_map =
  let l_idx = Schema.index_of (Table.schema ctx.table) l in
  let rows = Table.rows ctx.table in
  let indices =
    Array.of_list
      (List.filter
         (fun i -> not (Value.is_null rows.(i).(l_idx)))
         (List.init (Array.length rows) Fun.id))
  in
  if Array.length indices < 4 then None
  else begin
    (* each row's label, computed once per round *)
    let labels = Array.make (Array.length rows) "" in
    Array.iter (fun i -> labels.(i) <- label_map rows.(i).(l_idx)) indices;
    let label_of i = labels.(i) in
    let distinct_labels =
      Array.to_list indices |> List.map label_of |> List.sort_uniq String.compare
    in
    if List.length distinct_labels < 2 then None
    else begin
      let train, test =
        Stats.Sampling.stratified_split rng ~label:label_of
          ~train_fraction:config.Config.train_fraction indices
      in
      if Array.length train = 0 || Array.length test = 0 then None
      else begin
        let predict = trainer ctx h ~labels ~train in
        let prior = Learn.Evaluation.majority_prior (Array.map label_of train) in
        let outcome =
          Learn.Evaluation.test ~threshold:config.Config.significance ~classify:predict
            ~label_of ~majority_prior:prior test
        in
        Some
          {
            h_attr = h;
            l_attr = l;
            quality = outcome.Learn.Evaluation.quality;
            null_likelihood = outcome.Learn.Evaluation.null_likelihood;
            significant = outcome.Learn.Evaluation.significant;
            confusion = outcome.Learn.Evaluation.confusion;
          }
      end
    end
  end

let evaluate rng config teacher table ~h ~l ~label_map =
  evaluate_in (context teacher table) rng config ~h ~l ~label_map

let non_categorical_attributes ~categorical table =
  Schema.attribute_names (Table.schema table)
  |> List.filter (fun a -> not (List.mem a categorical))

let best_verdict_in ctx rng config ~non_categorical ~l =
  let candidates = List.filter (fun h -> h <> l) non_categorical in
  List.fold_left
    (fun best h ->
      (* A fresh split per h keeps verdicts independent. *)
      let verdict = evaluate_in ctx (Stats.Rng.split rng) config ~h ~l ~label_map:Value.to_string in
      match verdict with
      | Some v when v.significant -> (
        match best with
        | Some b when b.quality >= v.quality -> best
        | Some _ | None -> Some v)
      | Some _ | None -> best)
    None candidates

let best_verdict rng (config : Config.t) teacher table ~l =
  let categorical =
    Categorical.categorical_attributes ~params:config.Config.categorical_params table
  in
  best_verdict_in (context teacher table) rng config
    ~non_categorical:(non_categorical_attributes ~categorical table)
    ~l

(* --- EarlyDisjuncts label merging (paper §3.3) ----------------------- *)

(* Groups of l-values; the classification label of a group is the sorted
   concatenation of its members' display strings, each with '\' and '|'
   escaped so that no group's label equals another value's. *)
module Groups = struct
  type t = Value.t list list

  let initial values : t = List.map (fun v -> [ v ]) values

  let escape s =
    if not (String.exists (fun c -> c = '|' || c = '\\') s) then s
    else begin
      let buf = Buffer.create (String.length s + 4) in
      String.iter
        (fun c ->
          if c = '|' || c = '\\' then Buffer.add_char buf '\\';
          Buffer.add_char buf c)
        s;
      Buffer.contents buf
    end

  let label_of_group group =
    group
    |> List.map (fun v -> escape (Value.to_string v))
    |> List.sort String.compare |> String.concat "|"

  (* A value's label is its first group's, looked up by display string. *)
  let label_map (groups : t) =
    let labels = Hashtbl.create 16 in
    List.iter
      (fun g ->
        let label = label_of_group g in
        List.iter
          (fun v ->
            let s = Value.to_string v in
            if not (Hashtbl.mem labels s) then Hashtbl.add labels s label)
          g)
      groups;
    fun value ->
      let s = Value.to_string value in
      match Hashtbl.find_opt labels s with Some label -> label | None -> escape s

  let merge (groups : t) label1 label2 : t option =
    let g1 = List.find_opt (fun g -> label_of_group g = label1) groups in
    let g2 = List.find_opt (fun g -> label_of_group g = label2) groups in
    match (g1, g2) with
    | Some g1, Some g2 when g1 != g2 ->
      let rest = List.filter (fun g -> g != g1 && g != g2) groups in
      Some ((g1 @ g2) :: rest)
    | _, _ -> None
end

let merged_families_in ctx rng config ~l ~h =
  let table = ctx.table in
  let values = Table.distinct_values table l in
  let rec loop groups acc =
    if List.length groups < 2 then List.rev acc
    else begin
      let label_map = Groups.label_map groups in
      match evaluate_in ctx (Stats.Rng.split rng) config ~h ~l ~label_map with
      | None -> List.rev acc
      | Some verdict -> (
        match Stats.Confusion.normalized_error_pairs verdict.confusion with
        | [] -> List.rev acc (* no errors: nothing left to merge *)
        | ((v, v'), _) :: _ -> (
          match Groups.merge groups v v' with
          | None ->
            (* The confused pair involves the abstain label or labels we
               cannot merge; stop. *)
            List.rev acc
          | Some merged ->
            (* Re-evaluate the merged grouping; if significant, its view
               family is a candidate. *)
            let label_map' = Groups.label_map merged in
            let family =
              match evaluate_in ctx (Stats.Rng.split rng) config ~h ~l ~label_map:label_map' with
              | Some verdict' when verdict'.significant ->
                Some
                  (View.family_of_values ~quality:verdict'.quality table l merged)
              | Some _ | None -> None
            in
            let acc = match family with Some f -> f :: acc | None -> acc in
            loop merged acc))
    end
  in
  loop (Groups.initial values) []

let merged_families rng config teacher table ~l ~h =
  merged_families_in (context teacher table) rng config ~l ~h

let generate rng (config : Config.t) teacher table =
  let ctx = context teacher table in
  let categorical =
    Categorical.categorical_attributes ~params:config.Config.categorical_params table
  in
  let non_categorical = non_categorical_attributes ~categorical table in
  List.concat_map
    (fun l ->
      match best_verdict_in ctx (Stats.Rng.split rng) config ~non_categorical ~l with
      | None -> []
      | Some verdict ->
        let simple =
          View.partition_family ~quality:verdict.quality table l
        in
        let merged =
          if config.Config.early_disjuncts then
            merged_families_in ctx (Stats.Rng.split rng) config ~l ~h:verdict.h_attr
          else []
        in
        simple :: merged)
    categorical
