type t = {
  grams : string array;
  ids : (string, int) Hashtbl.t;
}

let of_grams grams =
  let sorted = List.sort_uniq String.compare grams in
  let grams = Array.of_list sorted in
  let ids = Hashtbl.create (max 16 (2 * Array.length grams)) in
  Array.iteri (fun i g -> Hashtbl.replace ids g i) grams;
  { grams; ids }

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

let ids t grams =
  Array.of_list (List.map (fun g -> Option.value (Hashtbl.find_opt t.ids g) ~default:(-1)) grams)

let gram t i = t.grams.(i)
let size t = Array.length t.grams
