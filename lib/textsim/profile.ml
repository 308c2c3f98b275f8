(* An interned view of a profile against a frozen {!Gram_dict}: the
   dictionary's ids of the profile's grams, id-sorted (= gram-sorted,
   because dictionary ids follow gram order), with their counts.
   [complete] records whether every gram of the profile made it into
   [ids] — only then can an int merge join against an arbitrary other
   profile be trusted to see every *shared* gram. *)
type interned = {
  dict : Gram_dict.t;
  ids : int array;
  icounts : int array;
  complete : bool;
}

type t = {
  q : int;
  counts : (string, int) Hashtbl.t;
  mutable total : int;
  (* gram-sorted view of the counts, memoised on first use and dropped
     on mutation: similarity folds run over it in one fixed order, so a
     profile rebuilt from serialised counts scores bit-identically to
     the freshly accumulated original whatever the hashtable's internal
     layout *)
  mutable sorted : (string * int) array option;
  (* L2 norm of the relative-frequency vector, memoised on first use
     and dropped on mutation, so cosine stops refolding both count
     arrays on every call *)
  mutable cached_norm : float option;
  (* interned view, attached lazily; racy same-value writes from
     worker domains are benign (each domain computes the identical
     arrays from the same frozen dictionary, and an option-pointer
     store is atomic) — the same contract [sorted] already relies on *)
  mutable interned : interned option;
}

let create q =
  {
    q;
    counts = Hashtbl.create 256;
    total = 0;
    sorted = None;
    cached_norm = None;
    interned = None;
  }

let invalidate t =
  t.sorted <- None;
  t.cached_norm <- None;
  t.interned <- None

let add t s =
  invalidate t;
  List.iter
    (fun gram ->
      let n = try Hashtbl.find t.counts gram with Not_found -> 0 in
      Hashtbl.replace t.counts gram (n + 1);
      t.total <- t.total + 1)
    (Tokenize.qgrams t.q s)

(* Removal is exact integer inversion of [add]: a gram's count drops by
   its multiplicity in the removed string, vanishing from the table at
   zero so [sorted_counts] (and hence every similarity fold, norm and
   interned view) of the patched profile equals that of a profile built
   fresh from the surviving strings. *)
let remove t s =
  invalidate t;
  List.iter
    (fun gram ->
      let n = try Hashtbl.find t.counts gram with Not_found -> 0 in
      if n <= 0 then invalid_arg "Profile.patch: removing absent gram";
      if n = 1 then Hashtbl.remove t.counts gram else Hashtbl.replace t.counts gram (n - 1);
      t.total <- t.total - 1)
    (Tokenize.qgrams t.q s)

let patch t ~add:adds ~remove:removes =
  List.iter (add t) adds;
  List.iter (remove t) removes

let of_strings ?(q = 3) strings =
  let t = create q in
  List.iter (add t) strings;
  t

let of_strings_array ?(q = 3) strings =
  let t = create q in
  Array.iter (add t) strings;
  t

let gram_count t = Hashtbl.length t.counts

let total t = t.total
let q t = t.q

let sorted_counts t =
  match t.sorted with
  | Some a -> a
  | None ->
    let a =
      Hashtbl.fold (fun gram n acc -> (gram, n) :: acc) t.counts []
      |> List.sort (fun (g1, _) (g2, _) -> String.compare g1 g2)
      |> Array.of_list
    in
    t.sorted <- Some a;
    a

let counts t = sorted_counts t

(* Counts that arrive gram-sorted (store shards, coded columns) are
   kept as the sorted view, so the first fold does not sort them again;
   the view is the one [sorted_counts] would build. *)
let of_counts ~q pairs =
  let t = create q in
  Array.iter
    (fun (gram, n) ->
      Hashtbl.replace t.counts gram n;
      t.total <- t.total + n)
    pairs;
  let n = Array.length pairs in
  let rec ascending i =
    i >= n || (String.compare (fst pairs.(i - 1)) (fst pairs.(i)) < 0 && ascending (i + 1))
  in
  if ascending 1 then t.sorted <- Some (Array.copy pairs);
  t

(* Same fold, in the same gram-sorted order, as the historical per-call
   norm computation inside [cosine] — cached values are bit-identical
   to freshly folded ones. *)
let norm t =
  match t.cached_norm with
  | Some n -> n
  | None ->
    let total = float_of_int t.total in
    let n =
      sqrt
        (Array.fold_left
           (fun acc (_, c) ->
             let f = float_of_int c /. total in
             acc +. (f *. f))
           0.0 (sorted_counts t))
    in
    t.cached_norm <- Some n;
    n

let intern dict t =
  match t.interned with
  | Some i when i.dict == dict -> ()
  | Some _ | None ->
    let cs = sorted_counts t in
    let n = Array.length cs in
    let ids = Array.make n 0 in
    let icounts = Array.make n 0 in
    let k = ref 0 in
    Array.iter
      (fun (g, c) ->
        match Gram_dict.find dict g with
        | Some id ->
          ids.(!k) <- id;
          icounts.(!k) <- c;
          incr k
        | None -> ())
      cs;
    (* lexicographic traversal + order-preserving ids = already sorted *)
    let ids = if !k = n then ids else Array.sub ids 0 !k in
    let icounts = if !k = n then icounts else Array.sub icounts 0 !k in
    ignore (norm t);
    t.interned <- Some { dict; ids; icounts; complete = !k = n }

let interned_ids t dict =
  match t.interned with
  | Some i when i.dict == dict -> Some (i.ids, i.icounts)
  | Some _ | None -> None

(* The int fast path is sound only when the two interned views share one
   dictionary and at least one side is [complete]: then every shared
   gram of the pair has an id on both sides, so the id merge join visits
   exactly the grams the string merge join would — in the same
   (gram-lexicographic) order.  When the dictionaries differ (or one
   side is missing a view) but a complete side exists, the other side is
   re-interned against it with one counts pass, which pays for itself
   across the many pairs a candidate profile is scored against. *)
let rec kernel_pair a b =
  match (a.interned, b.interned) with
  | Some ia, Some ib ->
    if ia.dict == ib.dict then if ia.complete || ib.complete then Some (ia, ib) else None
    else if ib.complete then begin
      intern ib.dict a;
      kernel_pair a b
    end
    else if ia.complete then begin
      intern ia.dict b;
      kernel_pair a b
    end
    else None
  | Some ia, None when ia.complete ->
    intern ia.dict b;
    kernel_pair a b
  | None, Some ib when ib.complete ->
    intern ib.dict a;
    kernel_pair a b
  | (Some _ | None), _ -> None

(* Cosine walks the two sorted-count arrays with a merge join: no
   hashtable iteration, so the float accumulation order is a function of
   the profile's *contents* alone.  The interned path replaces the
   per-gram [String.compare] with int comparisons; both paths add the
   identical terms in the identical order, so their results agree bit
   for bit. *)
let cosine a b =
  if a.total = 0 || b.total = 0 then 0.0
  else begin
    let ta = float_of_int a.total and tb = float_of_int b.total in
    let dot = ref 0.0 in
    (match kernel_pair a b with
    | Some (ia, ib) ->
      let la = Array.length ia.ids and lb = Array.length ib.ids in
      let i = ref 0 and j = ref 0 in
      while !i < la && !j < lb do
        let ga = ia.ids.(!i) and gb = ib.ids.(!j) in
        if ga = gb then begin
          dot :=
            !dot
            +. (float_of_int ia.icounts.(!i) /. ta *. (float_of_int ib.icounts.(!j) /. tb));
          incr i;
          incr j
        end
        else if ga < gb then incr i
        else incr j
      done
    | None ->
      let ca = sorted_counts a and cb = sorted_counts b in
      let i = ref 0 and j = ref 0 in
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
      done);
    let na = norm a and nb = norm b in
    if na = 0.0 || nb = 0.0 then 0.0 else !dot /. (na *. nb)
  end
