open Bigarray

type t = {
  dict : Gram_dict.t;
  targets : Profile.t array;
  norms : float array;
  (* flat CSR posting arena: one row per gram id, row ids = target
     slots (ascending), row vals = the relative frequency
     [count / total] of that target — the exact float the string merge
     join multiplies by *)
  post : Csr.floats;
  (* flat CSR profile arena: one row per target slot, row ids = gram
     ids (ascending), row vals = integer gram counts.  The columnar
     image of the interned target profiles; [patch] reads old rows from
     here. *)
  tprof : Csr.ints;
}

let build targets =
  let grams =
    Array.fold_left
      (fun acc p ->
        Array.fold_left (fun acc (g, _) -> g :: acc) acc (Profile.counts p))
      [] targets
  in
  let dict = Gram_dict.of_grams grams in
  Array.iter (Profile.intern dict) targets;
  let n_grams = Gram_dict.size dict in
  let n = Array.length targets in
  (* counting pass: per-gram posting count + per-slot interned rows *)
  let row_len = Array.make n_grams 0 in
  let tp_rows = Array.make n ([||], [||]) in
  Array.iteri
    (fun slot p ->
      if Profile.total p > 0 then
        match Profile.interned_ids p dict with
        | None -> assert false
        | Some (ids, counts) ->
          tp_rows.(slot) <- (ids, counts);
          Array.iter (fun id -> row_len.(id) <- row_len.(id) + 1) ids)
    targets;
  let tprof = Csr.pack_ints tp_rows in
  (* fill pass in ascending slot order: each gram's postings come out
     slot-sorted with no per-row sort *)
  let post = Csr.alloc_floats row_len in
  let cursor = Array.make n_grams 0 in
  Array.iteri
    (fun slot p ->
      if Profile.total p > 0 then begin
        let total = float_of_int (Profile.total p) in
        let ids, counts = tp_rows.(slot) in
        Array.iteri
          (fun k id ->
            let pos = Array1.unsafe_get post.Csr.f_offsets id + cursor.(id) in
            cursor.(id) <- cursor.(id) + 1;
            Array1.unsafe_set post.Csr.f_ids pos (Int32.of_int slot);
            Array1.unsafe_set post.Csr.f_vals pos (float_of_int counts.(k) /. total))
          ids
      end)
    targets;
  { dict; targets; norms = Array.map Profile.norm targets; post; tprof }

let gram_count t = Gram_dict.size t.dict
let arena_bytes t = Csr.floats_bytes t.post + Csr.ints_bytes t.tprof

(* Iterate the candidate's in-vocabulary grams in gram-lexicographic
   order with their relative frequencies — through the interned view
   when one against this dictionary is attached (the view's id set is
   exactly the profile∩dict grams, id-sorted), through a string walk
   with per-gram dictionary lookups otherwise.  Both yield the same
   (id, frequency) sequence, so every consumer accumulates the same
   floats in the same order. *)
let iter_cand t cand f =
  let tc = float_of_int (Profile.total cand) in
  match Profile.interned_ids cand t.dict with
  | Some (ids, counts) ->
    Array.iteri (fun k id -> f id (float_of_int counts.(k) /. tc)) ids
  | None ->
    Array.iter
      (fun (g, c) ->
        match Gram_dict.find t.dict g with
        | None -> ()
        | Some id -> f id (float_of_int c /. tc))
      (Profile.counts cand)

(* Exact term-at-a-time accumulation over every target.  For each
   target, the terms that reach its accumulator are exactly the
   candidate∩target grams, visited in the candidate's gram-sorted order
   — the same terms, in the same order, as the string merge join of
   [Profile.cosine], so the final quotients agree bit for bit. *)
let scores t cand =
  let n = Array.length t.targets in
  let acc = Array.make n 0.0 in
  let touched = Array.make n false in
  let cand_total = Profile.total cand in
  let nc = Profile.norm cand in
  if cand_total > 0 then begin
    let offs = t.post.Csr.f_offsets
    and pids = t.post.Csr.f_ids
    and pvals = t.post.Csr.f_vals in
    iter_cand t cand (fun id fc ->
        for p = Array1.unsafe_get offs id to Array1.unsafe_get offs (id + 1) - 1 do
          let s = Int32.to_int (Array1.unsafe_get pids p) in
          acc.(s) <- acc.(s) +. (fc *. Array1.unsafe_get pvals p);
          touched.(s) <- true
        done)
  end;
  let touched_n = ref 0 in
  for s = 0 to n - 1 do
    if touched.(s) then incr touched_n;
    acc.(s) <-
      (if cand_total = 0 || Profile.total t.targets.(s) = 0 then 0.0
       else if nc = 0.0 || t.norms.(s) = 0.0 then 0.0
       else acc.(s) /. (nc *. t.norms.(s)))
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

(* Slot replacement against the frozen dictionary.  The dict never
   grows (id order = gram order is what makes the interned merge join's
   accumulation order match the string path), so an update whose
   profile holds an out-of-vocabulary gram cannot be expressed — we
   return [None] and the caller rebuilds.  Grams whose postings empty
   out stay in the dictionary as zero-length arena rows; they are
   score-neutral: the accumulation walks an empty row and adds nothing.
   Touched posting rows are rebuilt with the exact folds [build] uses
   and untouched rows are bulk-blitted (bit-preserving) into the new
   arena, so every score of the patched index is bit-identical to a
   cold [build] over the new targets.

   Cost is honest O(delta) posting work plus an O(arena) copy: the
   splice allocates fresh flat buffers and memcpy-blits the untouched
   rows, which is far cheaper than the re-tokenisation a cold rebuild
   pays but is not free — the arena is contiguous, so there is no
   in-place per-row update without giving up the layout. *)
let patch t updates =
  let in_vocab (_, p) =
    Profile.intern t.dict p;
    match Profile.interned_ids p t.dict with
    | Some (ids, _) -> Array.length ids = Profile.gram_count p
    | None -> false
  in
  if not (List.for_all in_vocab updates) then None
  else begin
    let n = Array.length t.targets in
    let n_grams = Gram_dict.size t.dict in
    let targets = Array.copy t.targets in
    let norms = Array.copy t.norms in
    (* sequential replacement semantics: a slot listed twice keeps the
       last profile, exactly as iterating the updates in order would *)
    let repl = Hashtbl.create 8 in
    List.iter
      (fun (slot, p) ->
        if slot < 0 || slot >= n then invalid_arg "Gram_index.patch: slot out of range";
        Hashtbl.replace repl slot p)
      updates;
    let patched_slots =
      Hashtbl.fold (fun s _ acc -> s :: acc) repl [] |> List.sort Int.compare
    in
    let is_patched = Array.make n false in
    List.iter (fun s -> is_patched.(s) <- true) patched_slots;
    (* Touched grams: everything in an old or new profile of a patched
       slot.  New postings are collected per gram in ascending slot
       order (the outer walk is slot-ascending). *)
    let touched = Hashtbl.create 64 in
    let new_by_gram = Hashtbl.create 64 in
    List.iter
      (fun slot ->
        let p = Hashtbl.find repl slot in
        let old_ids, _ = Csr.ints_row t.tprof slot in
        Array.iter (fun id -> Hashtbl.replace touched id ()) old_ids;
        let total = Profile.total p in
        if total > 0 then begin
          let tf = float_of_int total in
          match Profile.interned_ids p t.dict with
          | None -> assert false
          | Some (ids, counts) ->
            Array.iteri
              (fun k id ->
                Hashtbl.replace touched id ();
                let cell =
                  match Hashtbl.find_opt new_by_gram id with
                  | Some c -> c
                  | None ->
                    let c = ref [] in
                    Hashtbl.add new_by_gram id c;
                    c
                in
                (* the exact relative frequency [build] computes *)
                cell := (slot, float_of_int counts.(k) /. tf) :: !cell)
              ids
        end)
      patched_slots;
    (* Walk touched gram ids in ascending id (= gram-lexicographic)
       order, not Hashtbl order: each row rebuild is independent, but a
       canonical walk keeps patch traces and any future side effects
       byte-stable whatever the hash seeding. *)
    let touched_ids =
      Hashtbl.fold (fun id () acc -> id :: acc) touched [] |> List.sort Int.compare
    in
    let rebuilt = Hashtbl.create (max 16 (List.length touched_ids)) in
    List.iter
      (fun id ->
        let slots, freqs = Csr.floats_row t.post id in
        let olds = ref [] in
        Array.iteri
          (fun k s -> if not is_patched.(s) then olds := (s, freqs.(k)) :: !olds)
          slots;
        let news =
          match Hashtbl.find_opt new_by_gram id with Some c -> List.rev !c | None -> []
        in
        (* both lists are slot-ascending with disjoint slots (news only
           holds patched slots, olds none), so one merge restores the
           canonical order *)
        let rec merge a b acc =
          match (a, b) with
          | [], rest | rest, [] -> List.rev_append acc rest
          | ((sa, _) as ha) :: ta, ((sb, _) as hb) :: tb ->
            if sa < sb then merge ta b (ha :: acc) else merge a tb (hb :: acc)
        in
        let entries = Array.of_list (merge (List.rev !olds) news []) in
        Hashtbl.replace rebuilt id (Array.map fst entries, Array.map snd entries))
      touched_ids;
    (* splice: untouched posting rows blit over bit-for-bit, touched
       rows are written from the rebuilt entries *)
    let old_offs = t.post.Csr.f_offsets in
    let row_len =
      Array.init n_grams (fun g ->
          match Hashtbl.find_opt rebuilt g with
          | Some (s, _) -> Array.length s
          | None -> Array1.get old_offs (g + 1) - Array1.get old_offs g)
    in
    let post = Csr.alloc_floats row_len in
    for g = 0 to n_grams - 1 do
      let dst = Array1.get post.Csr.f_offsets g in
      match Hashtbl.find_opt rebuilt g with
      | Some (slots, freqs) ->
        Array.iteri
          (fun k s ->
            Array1.unsafe_set post.Csr.f_ids (dst + k) (Int32.of_int s);
            Array1.unsafe_set post.Csr.f_vals (dst + k) freqs.(k))
          slots
      | None ->
        let src = Array1.get old_offs g in
        let len = row_len.(g) in
        if len > 0 then begin
          Array1.blit
            (Array1.sub t.post.Csr.f_ids src len)
            (Array1.sub post.Csr.f_ids dst len);
          Array1.blit
            (Array1.sub t.post.Csr.f_vals src len)
            (Array1.sub post.Csr.f_vals dst len)
        end
    done;
    (* profile arena: patched rows take the new interned columns,
       untouched rows blit over *)
    let old_toffs = t.tprof.Csr.i_offsets in
    let new_rows = Hashtbl.create 8 in
    List.iter
      (fun slot ->
        let p = Hashtbl.find repl slot in
        let row =
          if Profile.total p > 0 then
            match Profile.interned_ids p t.dict with
            | Some (ids, counts) -> (ids, counts)
            | None -> ([||], [||])
          else ([||], [||])
        in
        Hashtbl.replace new_rows slot row)
      patched_slots;
    let trow_len =
      Array.init n (fun s ->
          match Hashtbl.find_opt new_rows s with
          | Some (ids, _) -> Array.length ids
          | None -> Array1.get old_toffs (s + 1) - Array1.get old_toffs s)
    in
    let tprof = Csr.alloc_ints trow_len in
    for s = 0 to n - 1 do
      let dst = Array1.get tprof.Csr.i_offsets s in
      match Hashtbl.find_opt new_rows s with
      | Some (ids, counts) ->
        Array.iteri
          (fun k id ->
            Array1.unsafe_set tprof.Csr.i_ids (dst + k) (Int32.of_int id);
            Array1.unsafe_set tprof.Csr.i_vals (dst + k) (Int32.of_int counts.(k)))
          ids
      | None ->
        let src = Array1.get old_toffs s in
        let len = trow_len.(s) in
        if len > 0 then begin
          Array1.blit
            (Array1.sub t.tprof.Csr.i_ids src len)
            (Array1.sub tprof.Csr.i_ids dst len);
          Array1.blit
            (Array1.sub t.tprof.Csr.i_vals src len)
            (Array1.sub tprof.Csr.i_vals dst len)
        end
    done;
    List.iter
      (fun slot ->
        let p = Hashtbl.find repl slot in
        norms.(slot) <- Profile.norm p;
        targets.(slot) <- p)
      patched_slots;
    Some { t with targets; norms; post; tprof }
  end
