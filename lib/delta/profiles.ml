open Relational

(* Maintained artefacts of one attribute.  Grams, distinct values and
   words are kept as occurrence multisets: deletion is exact integer
   decrement, so the gram counts are the ones a cold scan counts and
   the distinct *set* a cold scan computes is exactly the multiset's
   key set — a value vanishes when its last occurrence does, never
   before. *)
type attr_state = {
  a_attr : string;
  a_grams : (string, int) Hashtbl.t option;
  a_distinct : (string, int) Hashtbl.t option;
  a_words : (string, int) Hashtbl.t option;
}

type t = { mutable p_table : Table.t; p_attrs : attr_state list }

let multiset_add h s = Hashtbl.replace h s (1 + Option.value ~default:0 (Hashtbl.find_opt h s))

let multiset_remove h s =
  match Hashtbl.find_opt h s with
  | None | Some 0 -> invalid_arg "Delta.Profiles: removing an absent occurrence"
  | Some 1 -> Hashtbl.remove h s
  | Some n -> Hashtbl.replace h s (n - 1)

let multiset_counts h =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let multiset_keys h = List.map fst (multiset_counts h)
let profile_of h = Textsim.Profile.of_counts (Array.of_list (multiset_counts h))

let cell_string v = if Value.is_null v then None else Some (Value.to_string v)

(* Fold one row into (dir = +1) or out of (dir = -1) the maintained
   state.  The two directions are exact integer inverses, so any
   append/delete interleaving lands on the same state as a cold scan of
   the surviving rows. *)
let fold_row t schema dir row =
  List.iter
    (fun a ->
      let v = row.(Schema.index_of schema a.a_attr) in
      match cell_string v with
      | None -> ()
      | Some s ->
        let fold h tokens =
          List.iter (fun x -> if dir > 0 then multiset_add h x else multiset_remove h x) tokens
        in
        Option.iter (fun h -> fold h (Textsim.Tokenize.trigrams s)) a.a_grams;
        Option.iter (fun h -> fold h [ s ]) a.a_distinct;
        Option.iter (fun h -> fold h (Textsim.Tokenize.words s)) a.a_words)
    t.p_attrs

let create table =
  let schema = Table.schema table in
  let attrs =
    List.map
      (fun name ->
        let attr = Schema.attribute schema name in
        let textual = Attribute.is_textual attr in
        let int_distinct = attr.Attribute.ty = Value.Tint in
        {
          a_attr = name;
          a_grams = (if textual then Some (Hashtbl.create 256) else None);
          a_distinct =
            (if textual || int_distinct then Some (Hashtbl.create 64) else None);
          a_words = (if textual then Some (Hashtbl.create 64) else None);
        })
      (Schema.attribute_names schema)
  in
  let t = { p_table = table; p_attrs = attrs } in
  Array.iter (fold_row t schema 1) (Table.rows table);
  t

let table t = t.p_table

let apply t delta =
  (match Core.validate delta t.p_table with
  | Ok () -> ()
  | Error m -> invalid_arg (Printf.sprintf "Delta.Profiles.apply: %s" m));
  let schema = Table.schema t.p_table in
  let removed = Core.deleted_rows delta t.p_table in
  let new_table = Core.apply delta t.p_table in
  Array.iter (fold_row t schema (-1)) removed;
  Array.iter (fold_row t schema 1) (Core.appends delta);
  t.p_table <- new_table;
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.incr "delta.applied";
    Obs.Metrics.add "delta.rows" (Core.size delta)
  end

let attr_state t attr = List.find_opt (fun a -> String.equal a.a_attr attr) t.p_attrs

let profile t attr = Option.bind (attr_state t attr) (fun a -> Option.map profile_of a.a_grams)

let distinct t attr =
  Option.bind (attr_state t attr) (fun a -> Option.map multiset_keys a.a_distinct)

let words t attr = Option.bind (attr_state t attr) (fun a -> Option.map multiset_keys a.a_words)

let column_patches t =
  List.map
    (fun a ->
      {
        Matching.Standard_match.cp_attr = a.a_attr;
        cp_profile = Option.map profile_of a.a_grams;
        cp_distinct = Option.map multiset_keys a.a_distinct;
        cp_words = Option.map multiset_keys a.a_words;
      })
    t.p_attrs
