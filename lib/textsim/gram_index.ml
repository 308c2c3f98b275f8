open Bigarray

type t = {
  dict : Gram_dict.t;
  targets : Profile.t array;
  (* flat CSR posting arena: one row per gram id, row ids = target
     slots (ascending), row vals = the relative frequency
     [count / total] of that target — the exact float the merge join
     of [Profile.cosine] multiplies by *)
  post : Csr.floats;
}

(* [(id, frequency)] of each gram of a target, in its gram order. *)
let frequencies p ids =
  let total = float_of_int (Profile.total p) in
  Array.mapi (fun k id -> (id, float_of_int (snd (Profile.counts p).(k)) /. total)) ids

let build targets =
  let dict, ids =
    Gram_dict.of_docs
      (Array.map
         (fun p -> Array.fold_right (fun (g, _) acc -> g :: acc) (Profile.counts p) [])
         targets)
  in
  let n_grams = Gram_dict.size dict in
  let row_len = Array.make n_grams 0 in
  Array.iter (Array.iter (fun id -> row_len.(id) <- row_len.(id) + 1)) ids;
  (* fill in ascending slot order: each gram's postings come out
     slot-sorted with no per-row sort *)
  let post = Csr.alloc_floats row_len in
  let cursor = Array.make n_grams 0 in
  Array.iteri
    (fun slot p ->
      Array.iter
        (fun (id, f) ->
          let pos = Array1.unsafe_get post.Csr.f_offsets id + cursor.(id) in
          cursor.(id) <- cursor.(id) + 1;
          Array1.unsafe_set post.Csr.f_ids pos (Int32.of_int slot);
          Array1.unsafe_set post.Csr.f_vals pos f)
        (frequencies p ids.(slot)))
    targets;
  { dict; targets; post }

let gram_count t = Gram_dict.size t.dict
let arena_bytes t = Csr.floats_bytes t.post

(* Exact term-at-a-time accumulation over every target.  For each
   target, the terms that reach its accumulator are exactly the
   candidate∩target grams, visited in the candidate's gram-sorted order
   — the same terms, in the same order, as the merge join of
   [Profile.cosine], so the final quotients agree bit for bit. *)
let scores t cand =
  let n = Array.length t.targets in
  let acc = Array.make n 0.0 in
  let touched = Array.make n false in
  let cand_total = Profile.total cand in
  let nc = Profile.norm cand in
  if cand_total > 0 then begin
    let tc = float_of_int cand_total in
    let offs = t.post.Csr.f_offsets
    and pids = t.post.Csr.f_ids
    and pvals = t.post.Csr.f_vals in
    Array.iter
      (fun (g, c) ->
        match Gram_dict.find t.dict g with
        | None -> ()
        | Some id ->
          let fc = float_of_int c /. tc in
          for p = Array1.unsafe_get offs id to Array1.unsafe_get offs (id + 1) - 1 do
            let s = Int32.to_int (Array1.unsafe_get pids p) in
            acc.(s) <- acc.(s) +. (fc *. Array1.unsafe_get pvals p);
            touched.(s) <- true
          done)
      (Profile.counts cand)
  end;
  let touched_n = ref 0 in
  for s = 0 to n - 1 do
    if touched.(s) then incr touched_n;
    let target = t.targets.(s) in
    acc.(s) <-
      (if cand_total = 0 || Profile.total target = 0 then 0.0
       else if nc = 0.0 || Profile.norm target = 0.0 then 0.0
       else acc.(s) /. (nc *. Profile.norm target))
  done;
  (acc, !touched_n)

let select all ~k ~tau =
  let hits = ref [] in
  for s = Array.length all - 1 downto 0 do
    if all.(s) >= tau then hits := (s, all.(s)) :: !hits
  done;
  let sorted =
    List.sort
      (fun (i, a) (j, b) ->
        let c = Float.compare b a in
        if c <> 0 then c else Int.compare i j)
      !hits
  in
  List.filteri (fun i _ -> i < k) sorted

(* The dictionary ids of a profile's grams, in its gram order, or
   [None] if one of them is outside the dictionary. *)
let ids_of t p =
  let counts = Profile.counts p in
  let ids = Array.make (Array.length counts) 0 in
  let rec go k =
    if k = Array.length counts then Some ids
    else
      match Gram_dict.find t.dict (fst counts.(k)) with
      | Some id ->
        ids.(k) <- id;
        go (k + 1)
      | None -> None
  in
  go 0

(* Slot replacement against the frozen dictionary.  The dictionary
   never grows, so an update whose profile holds an out-of-vocabulary
   gram cannot be expressed: [None], and the caller rebuilds.  Grams
   whose postings empty out stay in the dictionary as zero-length rows,
   which add nothing to any accumulation.  The row of every gram of an
   old or new profile of a patched slot is rebuilt from its unpatched
   entries and the new frequencies, in slot order; every other row is
   blitted over unchanged. *)
let patch t updates =
  let n = Array.length t.targets in
  (* sequential replacement semantics: a slot listed twice keeps the
     last profile *)
  let repl = Hashtbl.create 8 in
  List.iter
    (fun (slot, p) ->
      if slot < 0 || slot >= n then invalid_arg "Gram_index.patch: slot out of range";
      Hashtbl.replace repl slot p)
    updates;
  let patched =
    Hashtbl.fold (fun s p acc -> (s, p, ids_of t p) :: acc) repl []
    |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
  in
  if List.exists (fun (_, _, ids) -> ids = None) patched then None
  else begin
    let n_grams = Gram_dict.size t.dict in
    let targets = Array.copy t.targets in
    let is_patched = Array.make n false in
    let touched = Array.make n_grams false in
    (* each touched gram's new entries, slot-descending *)
    let fresh = Array.make n_grams [] in
    List.iter
      (fun (s, p, ids) ->
        Array.iter (fun id -> touched.(id) <- true) (Option.get (ids_of t t.targets.(s)));
        Array.iter
          (fun (id, f) ->
            touched.(id) <- true;
            fresh.(id) <- (s, f) :: fresh.(id))
          (frequencies p (Option.get ids));
        is_patched.(s) <- true;
        targets.(s) <- p)
      patched;
    let rec merge a b acc =
      match (a, b) with
      | [], rest | rest, [] -> List.rev_append acc rest
      | ((sa, _) as x) :: a', ((sb, _) as y) :: b' ->
        if sa < sb then merge a' b (x :: acc) else merge a b' (y :: acc)
    in
    let rows =
      Array.init n_grams (fun g ->
          if not touched.(g) then []
          else
            let slots, freqs = Csr.floats_row t.post g in
            let kept =
              List.filter
                (fun (s, _) -> not is_patched.(s))
                (List.combine (Array.to_list slots) (Array.to_list freqs))
            in
            merge kept (List.rev fresh.(g)) [])
    in
    let old_offs = t.post.Csr.f_offsets in
    let old_len g = Array1.get old_offs (g + 1) - Array1.get old_offs g in
    let post =
      Csr.alloc_floats
        (Array.init n_grams (fun g -> if touched.(g) then List.length rows.(g) else old_len g))
    in
    for g = 0 to n_grams - 1 do
      let dst = Array1.get post.Csr.f_offsets g in
      if touched.(g) then
        List.iteri
          (fun k (s, f) ->
            Array1.unsafe_set post.Csr.f_ids (dst + k) (Int32.of_int s);
            Array1.unsafe_set post.Csr.f_vals (dst + k) f)
          rows.(g)
      else begin
        let src = Array1.get old_offs g and len = old_len g in
        if len > 0 then begin
          Array1.blit (Array1.sub t.post.Csr.f_ids src len) (Array1.sub post.Csr.f_ids dst len);
          Array1.blit (Array1.sub t.post.Csr.f_vals src len) (Array1.sub post.Csr.f_vals dst len)
        end
      end
    done;
    Some { t with targets; post }
  end
