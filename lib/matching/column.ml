open Relational

type composed = {
  grams : (Profile_cache.family * Profile_cache.view_counts) Lazy.t;
  word_ids : (Profile_cache.set_family * int array) Lazy.t;
  value_ids : (Profile_cache.set_family * int array) Lazy.t;
}

type t = {
  owner : string;
  attribute : Attribute.t;
  values : Value.t array;
  (* when present, lazy artefacts are shared through the cache under
     this key instead of being recomputed per column *)
  cache : (Profile_cache.t * Profile_cache.key) option;
  (* when present, the column is a view over partition groups and its
     overlap artefacts come in its family's id space *)
  composed : composed option;
  mutable strings_memo : string array option;
  mutable floats_memo : float array option;
  mutable profile : Textsim.Profile.t option;
  mutable summary : Stats.Descriptive.summary option;
  mutable distinct : string list option;
  mutable words_memo : string list option;
}

let make ?cache ?composed ~owner attribute values =
  {
    owner;
    attribute;
    values;
    cache;
    composed;
    strings_memo = None;
    floats_memo = None;
    profile = None;
    summary = None;
    distinct = None;
    words_memo = None;
  }

let of_table ?cache table attr_name =
  let cache =
    (* registered under the full row range, so views selecting every
       row share the base column's artefacts *)
    Option.map
      (fun c ->
        ( c,
          Profile_cache.key ~table:(Table.name table) ~attr:attr_name
            ~indices:(Array.init (Table.row_count table) Fun.id) ))
      cache
  in
  make ?cache
    ~owner:(Table.name table)
    (Schema.attribute (Table.schema table) attr_name)
    (Table.column table attr_name)

let owner t = t.owner
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

let word_list strs = List.concat_map Textsim.Tokenize.words strs |> List.sort_uniq String.compare

let profile t =
  match t.profile with
  | Some p -> p
  | None ->
    let compute () = Textsim.Profile.of_strings_array (strings t) in
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
    let compute () = strings t |> Array.to_list |> List.sort_uniq String.compare in
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
    let compute () = word_list (strings t |> Array.to_list) in
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
   artefacts.  The families below pack the groups' artefacts once per
   (table, condition attribute, attribute), built through the exact
   per-group keys whether {!warm_families} or a view's first lookup
   gets there first, and shared by every view over the attribute. *)

let sub_strings base attr indices =
  let rows = Table.rows base in
  let col = Schema.index_of (Table.schema base) attr in
  Array.to_list indices
  |> List.filter_map (fun i ->
         let v = rows.(i).(col) in
         if Value.is_null v then None else Some (Value.to_string v))

let profile_family c base cond_attr attr =
  Profile_cache.family c ~table:base ~cond_attr ~attr ~profile_of:(fun indices ->
      Textsim.Profile.of_strings (sub_strings base attr indices))

let distinct_family c base cond_attr attr =
  Profile_cache.set_family c ~table:base ~cond_attr ~attr ~set_of:(fun indices ->
      sub_strings base attr indices |> List.sort_uniq String.compare)

let words_family c base cond_attr attr =
  Profile_cache.set_family c ~table:base ~cond_attr ~attr:(words_attr attr)
    ~set_of:(fun indices -> word_list (sub_strings base attr indices))

(* The id-space artefacts of one view column, each derived on first use
   from its family and the view's group slots; never cached beyond the
   column, never stored. *)
let compose c base cond_attr attr slots =
  let over family compose =
    lazy
      (let fam = family c base cond_attr attr in
       (fam, compose fam (Lazy.force slots)))
  in
  {
    grams = over profile_family Profile_cache.compose_counts;
    word_ids = over words_family Profile_cache.compose_ids;
    value_ids = over distinct_family Profile_cache.compose_ids;
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
          make
            ~composed:(compose c base cond_attr attr_name slots)
            ~owner:(View.name view) attribute values
        | Some _ | None ->
          if !Obs.Recorder.enabled then Obs.Metrics.incr "match.view_columns.scanned";
          let cache =
            Option.map (fun c -> (c, (Table.name base, attr_name, Lazy.force subset))) cache
          in
          make ?cache ~owner:(View.name view) attribute values
      in
      Hashtbl.add cols attr_name c;
      c

let of_view ?cache view attr_name = view_columns ?cache view attr_name

(* Build-time warm of the partition families: for every categorical
   condition attribute (under the default detection parameters — the
   same predicate NaiveInfer enumerates view families over) and every
   other textual attribute, force the columnar family pack plus the
   distinct and word set families.  View scoring then composes from
   warm artefacts instead of first-touch tokenising inside the scoring
   phase — the same "freeze after build" treatment {!warm} gives base
   columns.  Purely a warming pass: every artefact is built through the
   exact cache keys the lazy paths use, so a caller that skips it (or
   infers with non-default categorical parameters) computes the
   identical values lazily instead. *)
let warm_families ?pool cache table =
  let schema = Table.schema table in
  let cond_attrs = Categorical.categorical_attributes table in
  let pairs =
    List.concat_map
      (fun cond_attr ->
        List.filter_map
          (fun attr ->
            if attr = cond_attr then None
            else
              let a = Schema.attribute schema attr in
              if Attribute.is_textual a then Some (cond_attr, attr, `Textual)
              else if a.Attribute.ty = Value.Tint then Some (cond_attr, attr, `Int)
              else None)
          (Schema.attribute_names schema))
      cond_attrs
  in
  (* Every family a default-suite matcher reads is warmed — textual
     attrs get the profile pack plus the distinct and word set
     families, int attrs (scored by the value-overlap matcher) the
     distinct set family.  Completeness matters beyond speed: each
     family is one unit's, so its per-group lookups run exactly once
     here; a family first built lazily by concurrent views would
     otherwise be built once per racing worker, nested lookups and all,
     and the lookup counts would depend on the jobs count. *)
  let warm_pair (cond_attr, attr, kind) =
    (* Best-effort, per family: a failure (e.g. an injected fault) is
       dropped.  Nothing is memoised on exception and fault decisions
       are keyed to the looked-up artefact, not the call site, so the
       owning unit's own lookup later re-raises the identical error and
       quarantines exactly as if the warm had never run. *)
    let attempt build = try ignore (build cache table cond_attr attr) with _ -> () in
    (match kind with
    | `Int -> ()
    | `Textual ->
      attempt profile_family;
      attempt words_family);
    attempt distinct_family
  in
  (* Every pair of a condition attribute shares its partition: build
     each one here, once, before the fan-out.  Racing first touches from
     several workers would otherwise build it twice, making
     [cache.partition.builds] depend on the jobs count.  Best-effort,
     like [warm_pair]. *)
  List.iter
    (fun cond_attr -> try ignore (Profile_cache.partition cache ~table ~cond_attr) with _ -> ())
    cond_attrs;
  match pool with
  | Some pool -> ignore (Runtime.Pool.map_list pool warm_pair pairs)
  | None -> List.iter warm_pair pairs

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
