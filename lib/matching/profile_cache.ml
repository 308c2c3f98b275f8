type key = string * string * string

type partition = {
  part_values : Relational.Value.t array;
  part_indices : int array array;
}

(* Per-model translations of target columns into one family's
   dictionary, keyed by (target table, target attribute).  Each is
   built under the lock, at most once, by whichever view first scores
   against that target; the build only reads the already-warmed target
   column, so it does no memo lookup and cannot wait on the pool. *)
type 'a translations = { xlock : Mutex.t; xtbl : (string * string, 'a) Hashtbl.t }

type target_counts = { tc_counts : int array; tc_total : int; tc_norm : float }
type target_set = { ts_marks : Bytes.t; ts_size : int }

type family = {
  fam_dict : Textsim.Gram_dict.t;
  fam_rows : Textsim.Csr.ints;
  fam_targets : target_counts translations;
}

type set_family = {
  set_dict : Textsim.Gram_dict.t;
  set_rows : int array array;
  set_targets : target_set translations;
}

type set_kind = Values | Words

type view_counts = { vc_ids : int array; vc_counts : int array; vc_total : int; vc_norm : float }

type t = {
  profiles : (key, Textsim.Profile.t) Runtime.Memo.t;
  summaries : (key, Stats.Descriptive.summary) Runtime.Memo.t;
  distincts : (key, string list) Runtime.Memo.t;
  coded : (string * string, Textsim.Coded.t) Runtime.Memo.t;
  partitions : (string * string, partition) Runtime.Memo.t;
  families : (string * string * string, family) Runtime.Memo.t;
  set_families : (string * string * string * set_kind, set_family) Runtime.Memo.t;
  mutable partitioning : bool;
  mutable store : Store.t option;
  digests : (string, string) Hashtbl.t;
  digests_lock : Mutex.t;
  builds : int Atomic.t;
  full_range : (int * string) option Atomic.t;
}

let create () =
  {
    profiles = Runtime.Memo.create ();
    summaries = Runtime.Memo.create ();
    distincts = Runtime.Memo.create ();
    coded = Runtime.Memo.create ();
    partitions = Runtime.Memo.create ();
    families = Runtime.Memo.create ();
    set_families = Runtime.Memo.create ();
    partitioning = false;
    store = None;
    digests = Hashtbl.create 8;
    digests_lock = Mutex.create ();
    builds = Atomic.make 0;
    full_range = Atomic.make None;
  }

let set_partitioning t on = t.partitioning <- on
let partitioning t = t.partitioning

let attach_store t store = t.store <- Some store

let register_table t table =
  let name = Relational.Table.name table in
  Mutex.lock t.digests_lock;
  if not (Hashtbl.mem t.digests name) then
    Hashtbl.replace t.digests name (Store.table_digest table);
  Mutex.unlock t.digests_lock

let register_digest t ~table ~digest =
  Mutex.lock t.digests_lock;
  Hashtbl.replace t.digests table digest;
  Mutex.unlock t.digests_lock

let table_digest t name =
  Mutex.lock t.digests_lock;
  let d = Hashtbl.find_opt t.digests name in
  Mutex.unlock t.digests_lock;
  d

let store_key t ((tbl, attr, subset) : key) =
  match t.store with
  | None -> None
  | Some store ->
    Mutex.lock t.digests_lock;
    let digest = Hashtbl.find_opt t.digests tbl in
    Mutex.unlock t.digests_lock;
    (match digest with
    | None -> None
    | Some data -> Some (store, { Store.table = tbl; attr; subset; data }))

(* The build counter is bumped only when [compute] actually runs —
   neither a memo hit nor a store hit counts — so a fully warm run
   reports zero builds. *)
let built t v =
  Atomic.incr t.builds;
  if !Obs.Recorder.enabled then Obs.Metrics.incr "cache.profile.builds";
  v

let builds t = Atomic.get t.builds

let through t memo k ~find ~add compute =
  Runtime.Memo.find_or_add memo k (fun () ->
      match store_key t k with
      | None -> built t (compute ())
      | Some (store, skey) -> (
        match find store skey with
        | Some v -> v
        | None ->
          let v = built t (compute ()) in
          add store skey v;
          v))

let profile t k compute =
  through t t.profiles k ~find:Store.find_profile ~add:Store.add_profile compute

let summary t k compute =
  through t t.summaries k ~find:Store.find_summary ~add:Store.add_summary compute

let distinct t k compute =
  through t t.distincts k ~find:Store.find_distinct ~add:Store.add_distinct compute

(* Seeding inserts a delta-maintained artefact as if it had been
   computed cold: the memo takes it via [find_or_add] (a pre-existing
   entry wins — seeding never clobbers), the store gets it written
   through under the table's registered digest, and the build counter
   stays untouched, so a seeded-then-warm run still reports zero
   builds. *)
let seed t memo add k v =
  ignore
    (Runtime.Memo.find_or_add memo k (fun () ->
         (match store_key t k with Some (store, skey) -> add store skey v | None -> ());
         v))

let seed_profile t k v = seed t t.profiles Store.add_profile k v
let seed_distinct t k v = seed t t.distincts Store.add_distinct k v

(* Canonical textual encoding, NOT [Marshal]: marshalled byte layout is
   not stable across OCaml versions or architectures, which is
   unacceptable for a digest that doubles as an on-disk store key.  The
   exact index order is preserved — the cache contract is "same value
   sequence", not "same value set". *)
let subset_digest indices =
  let buf = Buffer.create (8 * Array.length indices) in
  Array.iter
    (fun i ->
      Buffer.add_string buf (string_of_int i);
      Buffer.add_char buf ',')
    indices;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let key ~table ~attr ~indices = (table, attr, subset_digest indices)

(* Every base column of a table is keyed by the same whole-range digest,
   so the last one taken is kept: a table's columns digest its rows
   once, not once each.  Two domains racing here store equal pairs. *)
let full_key t ~table ~attr ~rows =
  let digest =
    match Atomic.get t.full_range with
    | Some (n, d) when n = rows -> d
    | Some _ | None ->
      let d = subset_digest (Array.init rows Fun.id) in
      Atomic.set t.full_range (Some (rows, d));
      d
  in
  (table, attr, digest)

(* Partition of a table's row indices by the values of one (condition)
   attribute: groups are keyed by distinct non-null values under
   [Value.compare] — which treats [Int n] and [Float n.] as equal, like
   condition evaluation does — and each group's indices stay ascending,
   so a singleton group is index-for-index the row set of the
   corresponding [Eq] view. *)
let partition t ~table ~cond_attr =
  Runtime.Memo.find_or_add t.partitions (Relational.Table.name table, cond_attr)
    (fun () ->
      if !Obs.Recorder.enabled then Obs.Metrics.incr "cache.partition.builds";
      let col = Relational.Table.column table cond_attr in
      let idxs = ref [] in
      for i = Array.length col - 1 downto 0 do
        if not (Relational.Value.is_null col.(i)) then idxs := i :: !idxs
      done;
      (* stable sort by value keeps each group's indices ascending *)
      let sorted =
        List.stable_sort (fun i j -> Relational.Value.compare col.(i) col.(j)) !idxs
      in
      let groups = ref [] in
      let cur = ref [] in
      let curv = ref None in
      let flush () =
        match !curv with
        | None -> ()
        | Some v -> groups := (v, Array.of_list (List.rev !cur)) :: !groups
      in
      List.iter
        (fun i ->
          (match !curv with
          | Some v when Relational.Value.compare v col.(i) = 0 -> ()
          | _ ->
            flush ();
            curv := Some col.(i);
            cur := []);
          cur := i :: !cur)
        sorted;
      flush ();
      let groups = Array.of_list (List.rev !groups) in
      { part_values = Array.map fst groups; part_indices = Array.map snd groups })

let partition_slot p v =
  let lo = ref 0 and hi = ref (Array.length p.part_values - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Relational.Value.compare v p.part_values.(mid) in
    if c = 0 then found := Some mid
    else if c < 0 then hi := mid - 1
    else lo := mid + 1
  done;
  !found

let partition_indices p v = Option.map (fun i -> p.part_indices.(i)) (partition_slot p v)

let translations () = { xlock = Mutex.create (); xtbl = Hashtbl.create 8 }

let translated x key build =
  Mutex.protect x.xlock (fun () ->
      match Hashtbl.find_opt x.xtbl key with
      | Some v -> v
      | None ->
        let v = build () in
        Hashtbl.add x.xtbl key v;
        v)

(* The coded column of one (table, attribute): each cell coded by its
   display string, the way [Column.strings] renders it (nulls get no
   code).  Memoised per model, never stored; every base artefact and
   partition family of the attribute is counted from it. *)
let code table attr =
  Textsim.Coded.make
    (Array.map
       (fun v -> if Relational.Value.is_null v then None else Some (Relational.Value.to_string v))
       (Relational.Table.column table attr))

let coded t ~table ~attr =
  Runtime.Memo.find_or_add t.coded (Relational.Table.name table, attr) (fun () ->
      let c = code table attr in
      if !Obs.Recorder.enabled then begin
        Obs.Metrics.incr "cache.coded.builds";
        Obs.Metrics.add "cache.coded.values" (Textsim.Coded.size c)
      end;
      c)

let drop_coded t = Runtime.Memo.clear t.coded

(* One columnar "family pack" per (table, condition attribute, scored
   attribute): each partition group's gram counts over the attribute's
   coded column, one id-sorted CSR row per group in the column's gram
   dictionary.  The dictionary's ids follow gram order, so a view over
   k of the family's values is integer count addition in gram order
   over arena rows ({!compose_counts}) — no hashtable, no string.  The
   pack is derived from the coded column and the partition, and never
   persisted. *)
let family t ~table ~cond_attr ~attr =
  Runtime.Memo.find_or_add t.families (Relational.Table.name table, cond_attr, attr) (fun () ->
      let part = partition t ~table ~cond_attr in
      let col = coded t ~table ~attr in
      let rows = Array.map (fun rows -> Textsim.Coded.gram_counts ~rows col) part.part_indices in
      if !Obs.Recorder.enabled then begin
        Obs.Metrics.incr "cache.family.builds";
        Obs.Metrics.add "cache.family.groups" (Array.length rows)
      end;
      {
        fam_dict = Textsim.Coded.grams col;
        fam_rows = Textsim.Csr.pack_ints rows;
        fam_targets = translations ();
      })

(* The set counterpart of a family pack, per (table, condition
   attribute, attribute, kind): each group's distinct values or words
   as ascending ids in the coded column's value or word dictionary,
   whose ids follow [String.compare] order, so a union of id rows is a
   sorted-unique string union in id form. *)
let set_family t ~table ~cond_attr ~attr kind =
  Runtime.Memo.find_or_add t.set_families
    (Relational.Table.name table, cond_attr, attr, kind)
    (fun () ->
      let part = partition t ~table ~cond_attr in
      let col = coded t ~table ~attr in
      let set_dict, ids_of =
        match kind with
        | Values -> (Textsim.Coded.values col, Textsim.Coded.value_ids)
        | Words -> (Textsim.Coded.words col, Textsim.Coded.word_ids)
      in
      if !Obs.Recorder.enabled then Obs.Metrics.incr "cache.set_family.builds";
      {
        set_dict;
        set_rows = Array.map (fun rows -> ids_of ~rows col) part.part_indices;
        set_targets = translations ();
      })

(* One accumulator per domain, shared by every composition that domain
   runs: it grows to the largest family vocabulary seen and holds only
   zeros between calls — a composition clears exactly the entries it
   touched as it reads them back, and an exception clears the whole
   vector.  The slot is emptied while in use, so a re-entrant caller on
   the same domain (another systhread) gets a private vector instead of
   a shared dirty one. *)
let scratch = Domain.DLS.new_key (fun () -> ref [||])

let with_scratch n f =
  let slot = Domain.DLS.get scratch in
  let acc = if Array.length !slot >= n then !slot else Array.make n 0 in
  slot := [||];
  match f acc with
  | v ->
    slot := acc;
    v
  | exception e ->
    Array.fill acc 0 (Array.length acc) 0;
    slot := acc;
    raise e

(* Merge-sum the family rows of the given group slots: integer counts
   accumulate per gram id in the domain's scratch vector, read in place
   from the arena, then the non-zero ids come back out in ascending
   (= gram-lexicographic) order.  The count bag is exactly the bag a row
   re-scan of the groups' rows builds, and the norm folds those counts
   in that order, as {!Textsim.Profile.norm} does. *)
let compose_counts fam slots =
  let rows = fam.fam_rows in
  let offsets = rows.Textsim.Csr.i_offsets in
  let row_ids = rows.Textsim.Csr.i_ids and row_vals = rows.Textsim.Csr.i_vals in
  let vocab = Textsim.Gram_dict.size fam.fam_dict in
  let ids, counts =
    with_scratch vocab (fun acc ->
        let lo = ref vocab and hi = ref (-1) and distinct = ref 0 in
        List.iter
          (fun slot ->
            let first = Bigarray.Array1.get offsets slot in
            let last = Bigarray.Array1.get offsets (slot + 1) - 1 in
            if last >= first then begin
              lo := min !lo (Int32.to_int (Bigarray.Array1.unsafe_get row_ids first));
              hi := max !hi (Int32.to_int (Bigarray.Array1.unsafe_get row_ids last));
              for k = first to last do
                let id = Int32.to_int (Bigarray.Array1.unsafe_get row_ids k) in
                let c = acc.(id) in
                if c = 0 then incr distinct;
                acc.(id) <- c + Int32.to_int (Bigarray.Array1.unsafe_get row_vals k)
              done
            end)
          slots;
        let ids = Array.make !distinct 0 and counts = Array.make !distinct 0 in
        let k = ref 0 in
        for id = !lo to !hi do
          let c = acc.(id) in
          if c <> 0 then begin
            acc.(id) <- 0;
            ids.(!k) <- id;
            counts.(!k) <- c;
            incr k
          end
        done;
        (ids, counts))
  in
  let vc_total = Array.fold_left ( + ) 0 counts in
  let total = float_of_int vc_total in
  let vc_norm =
    sqrt
      (Array.fold_left
         (fun acc c ->
           let f = float_of_int c /. total in
           acc +. (f *. f))
         0.0 counts)
  in
  { vc_ids = ids; vc_counts = counts; vc_total; vc_norm }

(* Union the id rows of the given group slots in the scratch vector and
   read the marked ids back in id (= [String.compare]) order: the
   sorted-unique union of the groups' sets, in id form. *)
let compose_ids fam slots =
  let n = Textsim.Gram_dict.size fam.set_dict in
  with_scratch n (fun acc ->
      let lo = ref n and hi = ref (-1) and marked = ref 0 in
      List.iter
        (fun slot ->
          let ids = fam.set_rows.(slot) in
          let len = Array.length ids in
          if len > 0 then begin
            lo := min !lo ids.(0);
            hi := max !hi ids.(len - 1);
            Array.iter
              (fun id ->
                if acc.(id) = 0 then begin
                  acc.(id) <- 1;
                  incr marked
                end)
              ids
          end)
        slots;
      let out = Array.make !marked 0 in
      let k = ref 0 in
      for id = !lo to !hi do
        if acc.(id) <> 0 then begin
          acc.(id) <- 0;
          out.(!k) <- id;
          incr k
        end
      done;
      out)

(* A target column's counts laid over the family's ids: zero for a
   family gram the target lacks.  Total and norm stay the target's own
   (grams outside the family count there), as [Profile.cosine] reads
   them. *)
let target_counts fam key profile =
  translated fam.fam_targets key (fun () ->
      let p = profile () in
      let tc_counts = Array.make (Textsim.Gram_dict.size fam.fam_dict) 0 in
      Array.iter
        (fun (g, c) ->
          match Textsim.Gram_dict.find fam.fam_dict g with
          | Some id -> tc_counts.(id) <- c
          | None -> ())
        (Textsim.Profile.counts p);
      { tc_counts; tc_total = Textsim.Profile.total p; tc_norm = Textsim.Profile.norm p })

(* A target column's set marked over the family's ids, with the size of
   the whole set (members outside the family included).  Column sets
   are strictly ascending already; a foreign (store-loaded) one that is
   not is made so, as [Simmetrics.jaccard] would. *)
let target_set fam key set =
  translated fam.set_targets key (fun () ->
      let s = set () in
      let s =
        if Textsim.Simmetrics.strictly_sorted s then s else List.sort_uniq String.compare s
      in
      let ts_marks = Bytes.make (Textsim.Gram_dict.size fam.set_dict) '\000' in
      List.iter
        (fun v ->
          match Textsim.Gram_dict.find fam.set_dict v with
          | Some id -> Bytes.set ts_marks id '\001'
          | None -> ())
        s;
      { ts_marks; ts_size = List.length s })

(* [Profile.cosine]'s computation, term for term: the shared grams are
   the view's ids the target also counts, visited in id = gram order,
   each adding [(ca / ta) * (cb / tb)]; then the same zero guards and
   the same quotient. *)
let cosine v t =
  if v.vc_total = 0 || t.tc_total = 0 then 0.0
  else begin
    let ta = float_of_int v.vc_total and tb = float_of_int t.tc_total in
    let dot = ref 0.0 in
    Array.iteri
      (fun k id ->
        let cb = t.tc_counts.(id) in
        if cb <> 0 then
          dot := !dot +. (float_of_int v.vc_counts.(k) /. ta *. (float_of_int cb /. tb)))
      v.vc_ids;
    if v.vc_norm = 0.0 || t.tc_norm = 0.0 then 0.0 else !dot /. (v.vc_norm *. t.tc_norm)
  end

(* [Simmetrics.jaccard]'s integers: intersection and the two set sizes,
   1.0 for two empty sets. *)
let jaccard ids t =
  let size = Array.length ids in
  if size = 0 && t.ts_size = 0 then 1.0
  else begin
    let inter =
      Array.fold_left (fun n id -> if Bytes.get t.ts_marks id <> '\000' then n + 1 else n) 0 ids
    in
    float_of_int inter /. float_of_int (size + t.ts_size - inter)
  end

let hits t =
  Runtime.Memo.hits t.profiles + Runtime.Memo.hits t.summaries + Runtime.Memo.hits t.distincts

let misses t =
  Runtime.Memo.misses t.profiles + Runtime.Memo.misses t.summaries
  + Runtime.Memo.misses t.distincts

type stats = { stat_hits : int; stat_misses : int; stat_entries : int }

let stats t =
  let entry (m : (_, _) Runtime.Memo.t) = Runtime.Memo.length m in
  {
    stat_hits = hits t;
    stat_misses = misses t;
    stat_entries = entry t.profiles + entry t.summaries + entry t.distincts;
  }
