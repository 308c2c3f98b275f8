open Relational

type t = {
  owner : string;
  attribute : Attribute.t;
  values : Value.t array;
  (* when present, lazy artefacts are shared through the cache under
     this key instead of being recomputed per column *)
  cache : (Profile_cache.t * Profile_cache.key) option;
  (* the view this column was cut from, when it was; lets the profile
     of a categorical view be composed from partition profiles *)
  view : View.t option;
  mutable strings_memo : string array option;
  mutable floats_memo : float array option;
  mutable profile : Textsim.Profile.t option;
  mutable summary : Stats.Descriptive.summary option;
  mutable distinct : string list option;
  mutable words_memo : string list option;
}

let make ?cache ?view ~owner attribute values =
  {
    owner;
    attribute;
    values;
    cache;
    view;
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

let view_columns ?cache view =
  let base = View.base view in
  (* hashed at most once per view, and only when there is a cache to key *)
  let subset = lazy (Profile_cache.subset_digest (View.row_indices view)) in
  let cols = Hashtbl.create 8 in
  fun attr_name ->
    match Hashtbl.find_opt cols attr_name with
    | Some c -> c
    | None ->
      let cache =
        Option.map (fun c -> (c, (Table.name base, attr_name, Lazy.force subset))) cache
      in
      let c =
        make ?cache ~view ~owner:(View.name view)
          (Schema.attribute (Table.schema base) attr_name)
          (View.column view attr_name)
      in
      Hashtbl.add cols attr_name c;
      c

let of_view ?cache view attr_name = view_columns ?cache view attr_name

let owner t = t.owner
let attribute t = t.attribute
let name t = t.attribute.Attribute.name
let values t = t.values
let size t = Array.length t.values

let non_null_count t =
  Array.fold_left (fun acc v -> if Value.is_null v then acc else acc + 1) 0 t.values

let strings t =
  match t.strings_memo with
  | Some s -> s
  | None ->
    let s =
      Array.to_list t.values
      |> List.filter_map (fun v -> if Value.is_null v then None else Some (Value.to_string v))
      |> Array.of_list
    in
    t.strings_memo <- Some s;
    s

let floats t =
  match t.floats_memo with
  | Some f -> f
  | None ->
    let f = Array.to_list t.values |> List.filter_map Value.to_float |> Array.of_list in
    t.floats_memo <- Some f;
    f

(* The marker keeps word sets in the distinct-set memo (and store)
   without colliding with an attribute name: attribute names come from
   schema/CSV headers, which never contain a tab.  Exposed so delta
   maintenance can seed word sets under the exact key [words] below
   reads. *)
let words_attr attr = attr ^ "\twords"

(* ---- partition composition -------------------------------------------- *)

(* When the column belongs to a view whose condition selects values of
   one *other* categorical attribute, its rows are the disjoint union of
   that attribute's per-value partition groups, so any artefact that
   adds up — integer gram counts, distinct-string sets — can be composed
   from the per-group artefacts instead of re-scanning the rows.
   Composition is exact: summed counts equal rescanned counts
   bag-for-bag, id-order unions equal sorted-unique string unions, and
   the scoring folds only ever see the (gram-sorted) counts, so scores
   are bit-identical either way.  The per-group artefacts live in
   families shared through the cache by every view over the attribute,
   which is where the asymptotic win comes from. *)
let compose_plan t =
  match (t.cache, t.view) with
  | Some (c, _), Some view when Profile_cache.partitioning c -> (
    match Condition.selected_values (View.condition view) with
    | Some (cond_attr, vs) when cond_attr <> name t && vs <> [] ->
      (* [Value.compare]-dedup: [In] lists may repeat a row group (e.g.
         [Int 1] next to [Float 1.]), which would double-count *)
      Some (c, View.base view, cond_attr, List.sort_uniq Value.compare vs)
    | _ -> None)
  | _ -> None

let sub_strings base attr indices =
  let rows = Table.rows base in
  let col = Schema.index_of (Table.schema base) attr in
  Array.to_list indices
  |> List.filter_map (fun i ->
         let v = rows.(i).(col) in
         if Value.is_null v then None else Some (Value.to_string v))

let word_list strs = List.concat_map Textsim.Tokenize.words strs |> List.sort_uniq String.compare

(* The families every composed artefact reads, built through the exact
   per-group keys whether {!warm_families} or a view's first lookup
   gets there first. *)
let profile_family c base cond_attr attr =
  Profile_cache.family c ~table:base ~cond_attr ~attr ~profile_of:(fun indices ->
      Textsim.Profile.of_strings (sub_strings base attr indices))

let distinct_family c base cond_attr attr =
  Profile_cache.set_family c ~table:base ~cond_attr ~attr ~set_of:(fun indices ->
      sub_strings base attr indices |> List.sort_uniq String.compare)

let words_family c base cond_attr attr =
  Profile_cache.set_family c ~table:base ~cond_attr ~attr:(words_attr attr)
    ~set_of:(fun indices -> word_list (sub_strings base attr indices))

let empty_subset = Profile_cache.subset_digest [||]

(* The group slots of the selected values, in value order.  A value
   absent from the sample has no group; it still registers the empty
   row slice through [touch_empty], once per such value, so the memo
   and store artefact sets are those a per-value composition would
   leave behind. *)
let group_slots c base cond_attr vs ~touch_empty =
  let part = Profile_cache.partition c ~table:base ~cond_attr in
  let slots, missing =
    List.fold_left
      (fun (slots, missing) v ->
        match Profile_cache.partition_slot part v with
        | Some slot -> (slot :: slots, missing)
        | None -> (slots, missing + 1))
      ([], 0) vs
  in
  for _ = 1 to missing do
    touch_empty ()
  done;
  (List.rev slots, missing)

(* A view selecting exactly one present group shares that group's
   artefact; anything else is a union over the family's id rows. *)
let composed_profile t c base cond_attr vs =
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.incr "column.partition.composed";
    Obs.Metrics.add "column.partition.parts" (List.length vs)
  end;
  let attr = name t in
  let fam = profile_family c base cond_attr attr in
  let touch_empty () =
    ignore
      (Profile_cache.profile c (Table.name base, attr, empty_subset) (fun () ->
           Textsim.Profile.of_strings []))
  in
  match group_slots c base cond_attr vs ~touch_empty with
  | [ slot ], 0 -> fam.Profile_cache.fam_profiles.(slot)
  | slots, _ -> Profile_cache.compose_profile fam slots

let composed_set c base cond_attr vs (fam : Profile_cache.set_family) ~attr_key =
  let touch_empty () =
    ignore (Profile_cache.distinct c (Table.name base, attr_key, empty_subset) (fun () -> []))
  in
  match group_slots c base cond_attr vs ~touch_empty with
  | [ slot ], 0 -> fam.set_groups.(slot)
  | slots, _ -> Profile_cache.compose_set fam slots

let profile t =
  match t.profile with
  | Some p -> p
  | None ->
    let compute () =
      match compose_plan t with
      | Some (c, base, cond_attr, vs) -> composed_profile t c base cond_attr vs
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
      match compose_plan t with
      | Some (c, base, cond_attr, vs) ->
        composed_set c base cond_attr vs
          (distinct_family c base cond_attr (name t))
          ~attr_key:(name t)
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
      match compose_plan t with
      | Some (c, base, cond_attr, vs) ->
        composed_set c base cond_attr vs
          (words_family c base cond_attr (name t))
          ~attr_key:(words_attr (name t))
      | None -> word_list (strings t |> Array.to_list)
    in
    let w =
      match t.cache with
      | Some (c, (tbl, attr, subset)) ->
        Profile_cache.distinct c (tbl, words_attr attr, subset) compute
      | None -> compute ()
    in
    t.words_memo <- Some w;
    w

(* Build-time warm of the partition-composition artefacts: for every
   categorical condition attribute (under the default detection
   parameters — the same predicate NaiveInfer enumerates view families
   over) and every other textual attribute, force the columnar family
   pack plus the distinct and word set families.  View scoring then
   composes from warm artefacts instead of first-touch tokenising
   inside the scoring phase — the same "freeze after build" treatment
   {!warm} gives base columns.  Purely a warming pass: every artefact
   is built through the exact cache keys the lazy paths use, so a
   caller that skips it (or infers with non-default categorical
   parameters) computes the identical values lazily instead. *)
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
  (* Every composable family is warmed — textual attrs get the profile
     pack plus the distinct and word set families, int attrs (whose
     view distincts also compose, for the value-overlap matcher) the
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
