type t = {
  grams : string array;
  ids : (string, int) Hashtbl.t;
  (* dictionary-to-dictionary id translations, keyed by the *physical*
     target dictionary and attached lazily; racy same-value writes from
     worker domains are benign (every domain computes the identical map
     from the two frozen gram arrays, and a list-cons store is atomic —
     a lost entry merely recomputes) *)
  mutable xlat : (t * int array) list;
}

let of_grams grams =
  let sorted = List.sort_uniq String.compare grams in
  let grams = Array.of_list sorted in
  let ids = Hashtbl.create (max 16 (2 * Array.length grams)) in
  Array.iteri (fun i g -> Hashtbl.replace ids g i) grams;
  { grams; ids; xlat = [] }

(* One hash probe per gram occurrence: grams get provisional ids in
   first-seen order, which one pass over the distinct grams renumbers
   into the dictionary's lexicographic ids. *)
let of_docs docs =
  let seen = Hashtbl.create 1024 in
  let provisional =
    Array.map
      (fun doc ->
        Array.of_list
          (List.map
             (fun g ->
               match Hashtbl.find_opt seen g with
               | Some i -> i
               | None ->
                 let i = Hashtbl.length seen in
                 Hashtbl.add seen g i;
                 i)
             doc))
      docs
  in
  let t = of_grams (Hashtbl.fold (fun g _ acc -> g :: acc) seen []) in
  let renumber = Array.make (Hashtbl.length seen) 0 in
  Hashtbl.iter (fun g i -> renumber.(i) <- Hashtbl.find t.ids g) seen;
  (t, Array.map (Array.map (Array.get renumber)) provisional)

let find t g = Hashtbl.find_opt t.ids g
let mem t g = Hashtbl.mem t.ids g

let ids t grams =
  Array.of_list (List.map (fun g -> Option.value (Hashtbl.find_opt t.ids g) ~default:(-1)) grams)

let gram t i = t.grams.(i)
let size t = Array.length t.grams

(* Both gram arrays are lex-sorted, so one merge pass maps every id:
   no per-gram hashing, and the resulting map is strictly increasing on
   the shared grams — which is what lets a translated id-sorted count
   array stay sorted without re-sorting. *)
let translate t ~into =
  if t == into then Array.init (size t) Fun.id
  else
    match List.assq_opt into t.xlat with
    | Some map -> map
    | None ->
      let n = Array.length t.grams and m = Array.length into.grams in
      let map = Array.make n (-1) in
      let j = ref 0 in
      for i = 0 to n - 1 do
        let g = t.grams.(i) in
        while !j < m && String.compare into.grams.(!j) g < 0 do
          incr j
        done;
        if !j < m && String.equal into.grams.(!j) g then map.(i) <- !j
      done;
      t.xlat <- (into, map) :: t.xlat;
      map
