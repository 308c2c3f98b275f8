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

let of_view ?cache view attr_name =
  let cache =
    Option.map
      (fun c ->
        ( c,
          Profile_cache.key
            ~table:(Table.name (View.base view))
            ~attr:attr_name ~indices:(View.row_indices view) ))
      cache
  in
  make ?cache ~view
    ~owner:(View.name view)
    (Schema.attribute (Relational.Table.schema (View.base view)) attr_name)
    (View.column view attr_name)

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
   that attribute's per-value partitions, so any artefact that adds up —
   integer gram counts, distinct-string sets — can be composed from the
   per-partition artefacts instead of re-scanning the rows.  Composition
   is exact: summed counts equal rescanned counts bag-for-bag, and the
   scoring folds only ever see the (gram-sorted) counts, so scores are
   bit-identical either way.  The per-partition artefacts are shared
   through the cache across every view and family that selects the same
   attribute, which is where the asymptotic win comes from. *)
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

let partition_slices c base cond_attr vs =
  let part = Profile_cache.partition c ~table:base ~cond_attr in
  List.map
    (fun v ->
      match Profile_cache.partition_indices part v with
      | Some indices -> indices
      | None -> [||])
    vs

let sub_strings base attr indices =
  let rows = Table.rows base in
  let col = Schema.index_of (Table.schema base) attr in
  Array.to_list indices
  |> List.filter_map (fun i ->
         let v = rows.(i).(col) in
         if Value.is_null v then None else Some (Value.to_string v))

(* View-profile composition through the columnar family pack: the
   selected values map to partition-group slots, and the composed
   profile is one integer merge-sum over the family's arena rows —
   no hashtable, no string, no re-fold of the per-group counts.  The
   resulting count bag equals [Profile.sum] of the boxed per-group
   profiles (which itself equals a row re-scan), so scores stay
   bit-identical to both earlier paths.  Values absent from the sample
   still register their empty row slice through the cache, exactly as
   the boxed path did — the memo/store artefact set is unchanged. *)
let composed_profile t c base cond_attr vs =
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.incr "column.partition.composed";
    Obs.Metrics.add "column.partition.parts" (List.length vs)
  end;
  let attr = name t in
  let tname = Table.name base in
  let fam =
    Profile_cache.family c ~table:base ~cond_attr ~attr ~profile_of:(fun indices ->
        Textsim.Profile.of_strings (sub_strings base attr indices))
  in
  let part = Profile_cache.partition c ~table:base ~cond_attr in
  let slots, missing =
    List.fold_left
      (fun (slots, missing) v ->
        match Profile_cache.partition_slot part v with
        | Some slot -> (slot :: slots, missing)
        | None -> (slots, missing + 1))
      ([], 0) vs
  in
  let slots = List.rev slots in
  if missing > 0 then
    for _ = 1 to missing do
      ignore
        (Profile_cache.profile c
           (Profile_cache.key ~table:tname ~attr ~indices:[||])
           (fun () -> Textsim.Profile.of_strings []))
    done;
  match slots with
  | [ slot ] when missing = 0 -> fam.Profile_cache.fam_profiles.(slot)
  | slots -> Profile_cache.compose_profile fam slots

(* Sorted-unique union by pairwise merge: [of_slice] always produces
   [sort_uniq]'d lists, for which the fold of merges returns exactly
   what sort-uniq-of-concat would, in O(total) comparisons.  A slice
   that is not strictly sorted (only a foreign seeded artefact could
   be) falls back to the original path. *)
let rec strictly_sorted = function
  | a :: (b :: _ as tl) -> String.compare a b < 0 && strictly_sorted tl
  | [] | [ _ ] -> true

let merge_dedup xs ys =
  let rec go acc xs ys =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xt, y :: yt ->
      let c = String.compare x y in
      if c = 0 then go (x :: acc) xt yt
      else if c < 0 then go (x :: acc) xt ys
      else go (y :: acc) xs yt
  in
  go [] xs ys

let composed_distinct c base cond_attr vs ~attr_key ~of_slice =
  let tname = Table.name base in
  let subs =
    List.map
      (fun indices ->
        Profile_cache.distinct c
          (Profile_cache.key ~table:tname ~attr:attr_key ~indices)
          (fun () -> of_slice indices))
      (partition_slices c base cond_attr vs)
  in
  match subs with
  | [ d ] -> d
  | ds ->
    if List.for_all strictly_sorted ds then List.fold_left merge_dedup [] ds
    else List.concat ds |> List.sort_uniq String.compare

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
        composed_distinct c base cond_attr vs ~attr_key:(name t) ~of_slice:(fun indices ->
            sub_strings base (name t) indices |> List.sort_uniq String.compare)
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
    let word_list strs = List.concat_map Textsim.Tokenize.words strs |> List.sort_uniq String.compare in
    let compute () =
      match compose_plan t with
      | Some (c, base, cond_attr, vs) ->
        composed_distinct c base cond_attr vs ~attr_key:(words_attr (name t))
          ~of_slice:(fun indices -> word_list (sub_strings base (name t) indices))
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
   pack plus the per-group distinct and word sets.  View scoring then
   composes from warm artefacts instead of first-touch tokenising
   inside the scoring phase — the same "freeze after build" treatment
   {!warm} gives base columns.  Purely a warming pass: every artefact
   is built through the exact cache keys the lazy paths use, so a
   caller that skips it (or infers with non-default categorical
   parameters) computes the identical values lazily instead. *)
let warm_families ?pool cache table =
  let schema = Table.schema table in
  let tname = Table.name table in
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
  (* Every composable per-group artefact is warmed — textual attrs get
     the family pack plus distinct/word slices, int attrs (whose view
     distincts also compose, for the value-overlap matcher) get distinct
     slices.  Completeness matters beyond speed: an [Eq] view's row set
     *is* a partition group, so its column shares the slice's cache key,
     and whether its first lookup nests a slice compute would otherwise
     depend on which worker touched the slice first — warming everything
     here keeps the lookup counts jobs-invariant. *)
  let warm_pair (cond_attr, attr, kind) =
    (* Best-effort: a failure (e.g. an injected fault) is dropped.
       Nothing is memoised on exception and fault decisions are keyed to
       the looked-up artefact, not the call site, so the owning unit's
       own lookup later re-raises the identical error and quarantines
       exactly as if the warm had never run. *)
    try
      let part = Profile_cache.partition cache ~table ~cond_attr in
      (match kind with
      | `Int -> ()
      | `Textual ->
        ignore
          (Profile_cache.family cache ~table ~cond_attr ~attr ~profile_of:(fun indices ->
               Textsim.Profile.of_strings (sub_strings table attr indices))));
      Array.iter
        (fun indices ->
          ignore
            (Profile_cache.distinct cache
               (Profile_cache.key ~table:tname ~attr ~indices)
               (fun () -> sub_strings table attr indices |> List.sort_uniq String.compare));
          match kind with
          | `Int -> ()
          | `Textual ->
            ignore
              (Profile_cache.distinct cache
                 (Profile_cache.key ~table:tname ~attr:(words_attr attr) ~indices)
                 (fun () ->
                   List.concat_map Textsim.Tokenize.words (sub_strings table attr indices)
                   |> List.sort_uniq String.compare)))
        part.Profile_cache.part_indices
    with _ -> ()
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
