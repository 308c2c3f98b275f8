type t = {
  counts : (string * int) array;  (* gram-sorted, distinct, positive *)
  total : int;
  norm : float;
}

(* Relative frequencies squared and summed in gram order: the one fold
   every norm of these counts, wherever it is taken, must repeat. *)
let make counts =
  let total = Array.fold_left (fun acc (_, c) -> acc + c) 0 counts in
  let tf = float_of_int total in
  let norm =
    sqrt
      (Array.fold_left
         (fun acc (_, c) ->
           let f = float_of_int c /. tf in
           acc +. (f *. f))
         0.0 counts)
  in
  { counts; total; norm }

let of_counts counts =
  Array.iteri
    (fun i (g, c) ->
      if c <= 0 then invalid_arg "Profile.of_counts: non-positive count";
      if i > 0 && String.compare (fst counts.(i - 1)) g >= 0 then
        invalid_arg "Profile.of_counts: grams not strictly ascending")
    counts;
  make counts

let of_iter iter =
  let bag = Hashtbl.create 256 in
  iter (fun s ->
      List.iter
        (fun g -> Hashtbl.replace bag g (1 + Option.value ~default:0 (Hashtbl.find_opt bag g)))
        (Tokenize.trigrams s));
  make
    (Hashtbl.fold (fun g n acc -> (g, n) :: acc) bag []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> Array.of_list)

let of_strings strings = of_iter (fun f -> List.iter f strings)
let of_strings_array strings = of_iter (fun f -> Array.iter f strings)
let counts t = t.counts
let gram_count t = Array.length t.counts
let total t = t.total
let norm t = t.norm

(* The float accumulation order is a function of the two profiles'
   contents alone: shared grams, in gram order. *)
let cosine a b =
  if a.total = 0 || b.total = 0 then 0.0
  else begin
    let ta = float_of_int a.total and tb = float_of_int b.total in
    let ca = a.counts and cb = b.counts in
    let dot = ref 0.0 and i = ref 0 and j = ref 0 in
    while !i < Array.length ca && !j < Array.length cb do
      let ga, na = ca.(!i) and gb, nb = cb.(!j) in
      let c = String.compare ga gb in
      if c = 0 then begin
        dot := !dot +. (float_of_int na /. ta *. (float_of_int nb /. tb));
        incr i;
        incr j
      end
      else if c < 0 then incr i
      else incr j
    done;
    if a.norm = 0.0 || b.norm = 0.0 then 0.0 else !dot /. (a.norm *. b.norm)
  end
