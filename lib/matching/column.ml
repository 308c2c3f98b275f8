open Relational

type composed = {
  grams : (Profile_cache.family * Profile_cache.view_counts) Lazy.t;
  word_ids : (Profile_cache.set_family * int array) Lazy.t;
  value_ids : (Profile_cache.set_family * int array) Lazy.t;
}

type t = {
  attribute : Attribute.t;
  values : Value.t array;
  (* when present, lazy artefacts are shared through the cache under
     this key instead of being recomputed per column *)
  cache : (Profile_cache.t * Profile_cache.key) option;
  (* when present, the column is a view over partition groups and its
     overlap artefacts come in its family's id space *)
  composed : composed option;
  (* when present, the column is a whole base column and its text
     artefacts are counted from its coded column *)
  coded : (unit -> Textsim.Coded.t) option;
  mutable strings_memo : string array option;
  mutable floats_memo : float array option;
  mutable profile : Textsim.Profile.t option;
  mutable summary : Stats.Descriptive.summary option;
  mutable distinct : string list option;
  mutable words_memo : string list option;
}

let make ?cache ?composed attribute values =
  {
    attribute;
    values;
    cache;
    composed;
    coded = None;
    strings_memo = None;
    floats_memo = None;
    profile = None;
    summary = None;
    distinct = None;
    words_memo = None;
  }

let of_table ?cache table attr_name =
  let coded =
    match cache with
    | Some c -> fun () -> Profile_cache.coded c ~table ~attr:attr_name
    | None ->
      let coded = lazy (Profile_cache.code table attr_name) in
      fun () -> Lazy.force coded
  in
  let cache =
    (* registered under the full row range, so views selecting every
       row share the base column's artefacts *)
    Option.map
      (fun c ->
        let rows = Table.row_count table in
        (c, Profile_cache.full_key c ~table:(Table.name table) ~attr:attr_name ~rows))
      cache
  in
  {
    (make ?cache (Schema.attribute (Table.schema table) attr_name) (Table.column table attr_name))
    with
    coded = Some coded;
  }

let attribute t = t.attribute
let name t = t.attribute.Attribute.name
let values t = t.values
let size t = Array.length t.values
let composed t = t.composed

let non_null_count t =
  Array.fold_left (fun acc v -> if Value.is_null v then acc else acc + 1) 0 t.values

let strings t =
  match t.strings_memo with
  | Some s -> s
  | None ->
    let s = Array.make (non_null_count t) "" in
    let k = ref 0 in
    Array.iter
      (fun v ->
        if not (Value.is_null v) then begin
          s.(!k) <- Value.to_string v;
          incr k
        end)
      t.values;
    t.strings_memo <- Some s;
    s

let floats t =
  match t.floats_memo with
  | Some f -> f
  | None ->
    let f = Array.make (Array.length t.values) 0.0 in
    let k = ref 0 in
    Array.iter
      (fun v ->
        match Value.to_float v with
        | Some x ->
          f.(!k) <- x;
          incr k
        | None -> ())
      t.values;
    let f = if !k = Array.length f then f else Array.sub f 0 !k in
    t.floats_memo <- Some f;
    f

(* The marker keeps word sets in the distinct-set memo (and store)
   without colliding with an attribute name: attribute names come from
   schema/CSV headers, which never contain a tab.  Exposed so delta
   maintenance can seed word sets under the exact key [words] below
   reads. *)
let words_attr attr = attr ^ "\twords"

(* The strings of ascending ids of a dictionary. *)
let strings_of dict ids =
  Array.fold_right (fun id acc -> Textsim.Gram_dict.gram dict id :: acc) ids []

let profile t =
  match t.profile with
  | Some p -> p
  | None ->
    let compute () =
      match t.coded with
      | Some coded -> Textsim.Coded.profile (coded ())
      | None -> Textsim.Profile.of_strings_array (strings t)
    in
    let p =
      match t.cache with
      | Some (c, key) -> Profile_cache.profile c key compute
      | None -> compute ()
    in
    t.profile <- Some p;
    p

let summary t =
  match t.summary with
  | Some s -> s
  | None ->
    let compute () = Stats.Descriptive.summarize (floats t) in
    let s =
      match t.cache with
      | Some (c, key) -> Profile_cache.summary c key compute
      | None -> compute ()
    in
    t.summary <- Some s;
    s

let distinct_strings t =
  match t.distinct with
  | Some d -> d
  | None ->
    let compute () =
      match t.coded with
      | Some coded ->
        let c = coded () in
        strings_of (Textsim.Coded.values c) (Textsim.Coded.value_ids c)
      | None -> strings t |> Array.to_list |> List.sort_uniq String.compare
    in
    let d =
      match t.cache with
      | Some (c, key) -> Profile_cache.distinct c key compute
      | None -> compute ()
    in
    t.distinct <- Some d;
    d

let words t =
  match t.words_memo with
  | Some w -> w
  | None ->
    let compute () =
      match t.coded with
      | Some coded ->
        let c = coded () in
        strings_of (Textsim.Coded.words c) (Textsim.Coded.word_ids c)
      | None ->
        Array.to_list (strings t)
        |> List.concat_map Textsim.Tokenize.words
        |> List.sort_uniq String.compare
    in
    let w =
      match t.cache with
      | Some (c, (tbl, attr, subset)) ->
        Profile_cache.distinct c (tbl, words_attr attr, subset) compute
      | None -> compute ()
    in
    t.words_memo <- Some w;
    w

(* ---- partition families ----------------------------------------------- *)

(* A view whose condition selects values of one categorical attribute
   holds exactly the rows of those values' partition groups, so its
   gram counts, distinct set and word set are unions of per-group
   artefacts: the families of (table, condition attribute, attribute),
   built on first use from the attribute's coded column and shared by
   every view over the condition attribute.  The id-space artefacts of
   one view column are each derived on first use from its family and
   the view's group slots; never cached beyond the column, never
   stored. *)
let compose c base cond_attr attr slots =
  let over family compose =
    lazy
      (let fam = family () in
       (fam, compose fam (Lazy.force slots)))
  in
  let sets kind () = Profile_cache.set_family c ~table:base ~cond_attr ~attr kind in
  {
    grams =
      over (fun () -> Profile_cache.family c ~table:base ~cond_attr ~attr)
        Profile_cache.compose_counts;
    word_ids = over (sets Profile_cache.Words) Profile_cache.compose_ids;
    value_ids = over (sets Profile_cache.Values) Profile_cache.compose_ids;
  }

let view_columns ?cache view =
  let base = View.base view in
  (* hashed at most once per view, and only for a column cached by it *)
  let subset = lazy (Profile_cache.subset_digest (View.row_indices view)) in
  (* With partitioning on, a view selecting values of one attribute is
     scored over that attribute's partition groups: the slots of its
     values present in the sample, looked up once per view.
     [selected_values] dedups under [Value.compare], so an [In] list
     naming one group twice (say [Int 1] and [Float 1.]) yields one
     slot and no row counts twice. *)
  let groups =
    match cache with
    | Some c when Profile_cache.partitioning c -> (
      match Condition.selected_values (View.condition view) with
      | Some (cond_attr, (_ :: _ as vs)) ->
        let slots =
          lazy
            (let part = Profile_cache.partition c ~table:base ~cond_attr in
             List.filter_map (Profile_cache.partition_slot part) vs)
        in
        Some (c, cond_attr, slots)
      | Some (_, []) | None -> None)
    | Some _ | None -> None
  in
  let cols = Hashtbl.create 8 in
  fun attr_name ->
    match Hashtbl.find_opt cols attr_name with
    | Some c -> c
    | None ->
      let attribute = Schema.attribute (Table.schema base) attr_name in
      let values = View.column view attr_name in
      let c =
        match groups with
        | Some (c, cond_attr, slots) when cond_attr <> attr_name ->
          if !Obs.Recorder.enabled then Obs.Metrics.incr "match.view_columns.composed";
          make ~composed:(compose c base cond_attr attr_name slots) attribute values
        | Some _ | None ->
          if !Obs.Recorder.enabled then Obs.Metrics.incr "match.view_columns.scanned";
          let cache =
            Option.map (fun c -> (c, (Table.name base, attr_name, Lazy.force subset))) cache
          in
          make ?cache attribute values
      in
      Hashtbl.add cols attr_name c;
      c

let of_view ?cache view attr_name = view_columns ?cache view attr_name

let warm t =
  let a = t.attribute in
  if Attribute.is_textual a then begin
    ignore (profile t);
    ignore (distinct_strings t);
    ignore (words t)
  end;
  if Attribute.is_numeric a then begin
    ignore (summary t);
    ignore (floats t)
  end;
  if a.Attribute.ty = Value.Tint then ignore (distinct_strings t)
