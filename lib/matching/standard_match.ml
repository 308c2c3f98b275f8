open Relational

type target_col = { table : string; column : Column.t }

type model = {
  gated : bool;
  matchers : Matcher.t list;
  (* (matcher, source attr, target col) scoring events performed /
     skipped by the candidate filter — merged deterministically on the
     main domain, so both are jobs-invariant *)
  pairs_scored : int;
  pairs_pruned : int;
  source_db : Database.t;
  target_db : Database.t;
  target_cols : target_col list;
  (* (tgt_table, tgt_attr) -> target_col, for O(1) lookups in ScoreMatch *)
  target_index : (string * string, target_col) Hashtbl.t;
  (* (src_table, src_attr) -> Column *)
  source_cols : (string * string, Column.t) Hashtbl.t;
  (* (src_table, src_attr, matcher) -> raw-score normalisation stats *)
  stats : (string * string * string, Normalize.t) Hashtbl.t;
  (* (src_table, src_attr, tgt_table, tgt_attr, matcher) -> raw score *)
  raw : (string * string * string * string * string, float) Hashtbl.t;
  (* view-column artefacts shared across candidate-view scorings *)
  cache : Profile_cache.t;
  (* target-column artefacts; a separate cache instance so a source
     and a target table with the same name can never collide on the
     in-memory (table, attr, subset) key *)
  tgt_cache : Profile_cache.t;
  (* interned q-gram index over the textual target columns; None when
     the kernel is disabled or no textual target exists *)
  kernel : Score_kernel.t option;
}

type filter = { k : int; tau : float }

let filter_to_string = function
  | None -> "default"
  | Some { k; tau = 0.0 } -> Printf.sprintf "filter:%d" k
  | Some { k; tau } ->
    (* shortest of the two precisions that reads back as the same float *)
    let short = Printf.sprintf "%.15g" tau in
    Printf.sprintf "filter:%d,%s" k
      (if float_of_string short = tau then short else Printf.sprintf "%.17g" tau)

let filter_of_string spec =
  let s = String.trim (String.lowercase_ascii spec) in
  let bad reason =
    Error
      (Printf.sprintf "bad plan spec %S: %s (expected default | filter[:K[,TAU]])" spec reason)
  in
  let parse_k k =
    match int_of_string_opt (String.trim k) with
    | Some k when k > 0 -> Ok k
    | Some _ | None -> bad "K must be a positive integer"
  in
  match s with
  | "default" | "legacy" -> Ok None
  | "filter" -> Ok (Some { k = 16; tau = 0.0 })
  | _ when String.starts_with ~prefix:"filter:" s -> (
    match String.split_on_char ',' (String.sub s 7 (String.length s - 7)) with
    | [ k ] -> Result.map (fun k -> Some { k; tau = 0.0 }) (parse_k k)
    | [ k; tau ] -> (
      match (parse_k k, float_of_string_opt (String.trim tau)) with
      | Ok k, Some tau when tau >= 0.0 && tau <= 1.0 -> Ok (Some { k; tau })
      | Ok _, _ -> bad "TAU must be a float in [0,1]"
      | (Error _ as e), _ -> e)
    | _ -> bad "too many fields")
  | _ -> bad "unknown spec"

let source m = m.source_db
let target m = m.target_db
let profile_cache m = m.cache
let kernel_enabled m = m.kernel <> None
let pairs_scored m = m.pairs_scored
let pairs_pruned m = m.pairs_pruned
let cache_stats m = (Profile_cache.hits m.cache, Profile_cache.misses m.cache)
let profile_builds m = Profile_cache.builds m.cache + Profile_cache.builds m.tgt_cache

(* Immutable prepared-target artefact: everything [build] derives from
   the target database alone — warmed columns, the (table, attr) index,
   the target-side profile cache and the frozen scoring kernel.  A
   long-lived process (the serve daemon) prepares a target once and
   shares the artefact across requests, which then only score their own
   source against it; [build] over the same target with the same flags
   produces a bit-identical model either way, because the preparation
   below is exactly the code [build] used to run inline. *)
type prepared_target = {
  pt_target_db : Database.t;
  pt_cols : target_col list;
  pt_index : (string * string, target_col) Hashtbl.t;
  pt_cache : Profile_cache.t;
  pt_kernel : Score_kernel.t option;
  pt_issues : Robust.Error.t list;
      (* target columns quarantined while warming, in column order;
         replayed into every consuming build's report so a run over a
         shared prepared target reports the same issues a one-shot run
         over the same target would *)
}

let prepare_target ?store ?(kernel = true) ?(fail_fast = false) ~target () =
  Obs.Trace.with_span "prepare_target" @@ fun () ->
  let tgt_cache = Profile_cache.create () in
  (match store with
  | None -> ()
  | Some s ->
    Profile_cache.attach_store tgt_cache s;
    List.iter (Profile_cache.register_table tgt_cache) (Database.tables target));
  let target_cols =
    List.concat_map
      (fun tbl ->
        List.map
          (fun attr ->
            { table = Table.name tbl; column = Column.of_table ~cache:tgt_cache tbl attr })
          (Schema.attribute_names (Table.schema tbl)))
      (Database.tables target)
  in
  (* Warm the shared target columns up front: consumers read them
     concurrently, so their lazy artefacts must already be in place
     (same computations the sequential path performs on first touch).
     Warming runs through the memo (and its fault-injection site), so a
     failing warm quarantines exactly that target column — sequentially
     on the calling domain, hence jobs-invariant. *)
  let rev_issues = ref [] in
  let target_cols =
    Obs.Trace.with_span "warm_targets" (fun () ->
        List.filter
          (fun tgt ->
            match Column.warm tgt.column with
            | () -> true
            | exception e ->
              if fail_fast then raise e;
              rev_issues :=
                Robust.Error.v ~table:tgt.table ~attribute:(Column.name tgt.column)
                  Robust.Error.Build
                  (Printf.sprintf "target column skipped: %s" (Printexc.to_string e))
                :: !rev_issues;
              false)
          target_cols)
  in
  let target_index = Hashtbl.create 64 in
  List.iter
    (fun tgt -> Hashtbl.replace target_index (tgt.table, Column.name tgt.column) tgt)
    target_cols;
  (* Freeze the scoring kernel after the warm-up: the interner
     dictionary and inverted index are immutable from here on, so
     worker domains (and every later consumer) read them lock-free. *)
  let score_kernel =
    if not kernel then None
    else begin
      let textual =
        List.filter
          (fun tgt -> Relational.Attribute.is_textual (Column.attribute tgt.column))
          target_cols
      in
      match textual with
      | [] -> None
      | _ ->
        Obs.Trace.with_span "build_kernel" (fun () ->
            Some
              (Score_kernel.build
                 (Array.of_list
                    (List.map
                       (fun tgt ->
                         ((tgt.table, Column.name tgt.column), Column.profile tgt.column))
                       textual))))
    end
  in
  {
    pt_target_db = target;
    pt_cols = target_cols;
    pt_index = target_index;
    pt_cache = tgt_cache;
    pt_kernel = score_kernel;
    pt_issues = List.rev !rev_issues;
  }

(* ---- O(delta) prepared-target patching -------------------------------- *)

(* Delta-maintained replacement artefacts for one attribute of a
   patched table.  [None] fields mean "nothing maintained for this
   artefact" — the rebuilt column computes it on warm (numeric
   summaries recompute over the new rows; the fold is the one the cold
   path runs, so the values are bit-identical). *)
type column_patch = {
  cp_attr : string;
  cp_profile : Textsim.Profile.t option;
  cp_distinct : string list option;
  cp_words : string list option;
}

(* Rebuild a prepared target around one replaced table without
   re-tokenizing its text: the scoring kernel is patched in place
   (touched postings only), the maintained artefacts are seeded into a
   fresh target cache under the exact keys the new columns will read,
   and every column of an unchanged table is reused verbatim — its
   artefacts are memoised in-object and immutable.  [None] when the new
   rows hold grams outside the frozen dictionary (the interner cannot
   grow); the caller must [prepare_target] cold.  The original artefact
   is never mutated, so concurrent readers of the old generation stay
   valid and a failed patch leaves no trace. *)
let patch_prepared ?store prepared ~table ?digest ~patches () =
  Obs.Trace.with_span "patch_prepared" @@ fun () ->
  let table_name = Table.name table in
  let kernel_updates =
    List.filter_map
      (fun cp ->
        match cp.cp_profile with
        | Some p -> Some ((table_name, cp.cp_attr), p)
        | None -> None)
      patches
  in
  let patched_kernel =
    match prepared.pt_kernel with
    | None -> Some None
    | Some k -> (
      match Score_kernel.patch k kernel_updates with
      | Some k' -> Some (Some k')
      | None -> None)
  in
  match patched_kernel with
  | None -> None (* out-of-vocabulary gram: the dictionary cannot grow *)
  | Some pt_kernel ->
    let new_db = Database.replace_table prepared.pt_target_db table in
    let new_cache = Profile_cache.create () in
    let store =
      match store with Some _ -> store | None -> prepared.pt_cache.Profile_cache.store
    in
    (match store with
    | None -> ()
    | Some s ->
      Profile_cache.attach_store new_cache s;
      List.iter
        (fun tbl ->
          let name = Table.name tbl in
          if String.equal name table_name then begin
            let d = match digest with Some d -> d | None -> Store.table_digest tbl in
            Profile_cache.register_digest new_cache ~table:name ~digest:d
          end
          else
            match Profile_cache.table_digest prepared.pt_cache name with
            | Some d -> Profile_cache.register_digest new_cache ~table:name ~digest:d
            | None -> Profile_cache.register_table new_cache tbl)
        (Database.tables new_db));
    (* Seed the maintained artefacts under the full-range keys
       [Column.of_table] registers, so warming the rebuilt columns hits
       the memo (and writes through to the store) instead of
       re-scanning rows. *)
    let full_range = Array.init (Table.row_count table) Fun.id in
    List.iter
      (fun cp ->
        let (tbl, attr, subset) =
          Profile_cache.key ~table:table_name ~attr:cp.cp_attr ~indices:full_range
        in
        let k = (tbl, attr, subset) in
        Option.iter (fun p -> Profile_cache.seed_profile new_cache k p) cp.cp_profile;
        Option.iter (fun d -> Profile_cache.seed_distinct new_cache k d) cp.cp_distinct;
        Option.iter
          (fun w -> Profile_cache.seed_distinct new_cache (tbl, Column.words_attr attr, subset) w)
          cp.cp_words)
      patches;
    (* Column order and the warm-quarantine exclusions of the original
       preparation are preserved: unchanged tables reuse their warmed
       columns verbatim, the patched table's surviving columns are
       recreated against the new rows and re-warmed (cheap: the seeded
       cache answers the textual artefacts). *)
    let pt_cols =
      List.map
        (fun tgt ->
          if not (String.equal tgt.table table_name) then tgt
          else begin
            let column = Column.of_table ~cache:new_cache table (Column.name tgt.column) in
            Column.warm column;
            { table = table_name; column }
          end)
        prepared.pt_cols
    in
    let pt_index = Hashtbl.create 64 in
    List.iter (fun tgt -> Hashtbl.replace pt_index (tgt.table, Column.name tgt.column) tgt) pt_cols;
    if !Obs.Recorder.enabled then Obs.Metrics.incr "prepared.patches";
    Some
      {
        pt_target_db = new_db;
        pt_cols;
        pt_index;
        pt_cache = new_cache;
        pt_kernel;
        pt_issues = prepared.pt_issues;
      }

let prepared_target_db p = p.pt_target_db
let prepared_issues p = p.pt_issues
let prepared_columns p = List.length p.pt_cols
let prepared_kernel p = p.pt_kernel <> None

(* One fan-out unit of [build]: every raw score and the per-matcher
   normalisation stats of a single source attribute.  Pure apart from
   reads of the pre-warmed target columns and writes to its own
   freshly created source column, so units can run on any domain. *)
type built_pair = {
  bp_table : string;
  bp_attr : string;
  bp_column : Column.t;
  (* matcher name, (tgt_table, tgt_attr, raw score) list, stats *)
  bp_scores : (string * (string * string * float) list * Normalize.t option) list;
  (* scoring events performed / skipped by the filter, for this unit *)
  bp_scored : int;
  bp_pruned : int;
}

(* Top-k retrieval by raw q-gram cosine — shared by the candidate
   filter and [top_qgram_matches].  With a kernel, one pass over the
   inverted index scores only the targets sharing a gram with the
   probe (the rest are provable zeros, costing nothing); without one,
   every textual target is scored pairwise.  Both paths run the
   identical exact accumulation and the identical (score desc, slot
   asc) order, so their results coincide — the differential suite
   asserts it.  Note [tau = 0.0] keeps zero-score textual targets in
   both paths (0 >= 0), so a filter with a full-width k degenerates to
   the unfiltered pipeline exactly. *)
let qgram_candidates ?pool ~kernel ~target_cols profile ~k ~tau =
  match kernel with
  | Some kern -> Score_kernel.top_k ?pool kern profile ~k ~tau
  | None ->
    let textual =
      List.filter
        (fun tgt -> Relational.Attribute.is_textual (Column.attribute tgt.column))
        target_cols
    in
    let scored =
      List.mapi
        (fun i tgt ->
          ( i,
            (tgt.table, Column.name tgt.column),
            Textsim.Profile.cosine profile (Column.profile tgt.column) ))
        textual
    in
    List.filter (fun (_, _, s) -> s >= tau) scored
    |> List.sort (fun (i, _, a) (j, _, b) ->
           let c = Float.compare b a in
           if c <> 0 then c else Int.compare i j)
    |> List.filteri (fun i _ -> i < k)
    |> List.map (fun (_, name, s) -> (name, s))

let build ?(gated = true) ?(matchers = Matchers.default_suite) ?(jobs = 1) ?report
    ?(deadline = Robust.Deadline.none) ?store ?(kernel = true) ?prepared ?filter ~source
    ~target () =
  Obs.Trace.with_span "standard_match.build" @@ fun () ->
  let cache = Profile_cache.create () in
  (match store with
  | None -> ()
  | Some s ->
    (* register before the fan-out: worker domains only read digests *)
    Profile_cache.attach_store cache s;
    List.iter (Profile_cache.register_table cache) (Database.tables source));
  (* Target-side artefacts: reuse the shared prepared artefact when the
     caller holds one (the serve daemon prepares a registered target
     once), otherwise prepare inline — fail-fast exactly when there is
     no report to absorb a warm failure, preserving the legacy
     contract.  Prepared warm issues are replayed into this build's
     report (in their original column order, before any fan-out issue),
     so the report is identical whether the target was prepared by this
     very call or minutes earlier by another one. *)
  let prepared =
    match prepared with
    | Some p -> p
    | None -> prepare_target ?store ~kernel ~fail_fast:(report = None) ~target ()
  in
  (match report with
  | Some r -> List.iter (Robust.Report.add r) prepared.pt_issues
  | None -> ());
  let target_cols = prepared.pt_cols in
  let target_index = prepared.pt_index in
  let tgt_cache = prepared.pt_cache in
  (* Partition composition of view profiles rides the kernel switch —
     the bench's kernel-off mode measures the legacy path.  A kernel
     disabled for this build also ignores a prepared index: pruning and
     batching decide cost only, never a score, so results stay
     bit-identical either way. *)
  Profile_cache.set_partitioning cache kernel;
  let score_kernel = if kernel then prepared.pt_kernel else None in
  let pairs =
    List.concat_map
      (fun src_tbl ->
        List.map
          (fun src_attr -> (src_tbl, src_attr))
          (Schema.attribute_names (Table.schema src_tbl)))
      (Database.tables source)
    |> Array.of_list
  in
  let pool = Runtime.Pool.get ~jobs in
  (* Freeze the source-side partition families at build time, like
     [prepare_target] freezes target artefacts: view scoring later
     composes categorical-view profiles/distincts/words from these warm
     per-group artefacts instead of first-touch tokenising inside the
     scoring phase.  Warming rides the kernel switch with partition
     composition itself; it never changes a value, only when it is
     computed. *)
  if kernel then
    Obs.Trace.with_span "warm_families" (fun () ->
        List.iter (Column.warm_families ~pool cache) (Database.tables source));
  (* Sharded-kernel pre-pass.  [Runtime.Pool] is not re-entrant, so the
     kernel's sharded TAAT can only fan out from this domain — never
     from inside the per-attribute units below.  When the target side
     is big enough for sharding to pay (>= [Score_kernel.shard_threshold]
     slots), the textual source profiles are warmed pool-parallel first
     (through the shared memo the units read), then each filter probe /
     batch scoring runs here with the pool reaching the kernel inner
     loop.  The units consult the precomputed tables — read-only during
     the fan-out — and fall back inline for anything the pre-pass
     skipped; sharded and sequential accumulation concatenate to the
     same array, so results are bit-identical either way.  Below the
     threshold the per-attribute fan-out is the better use of the
     domains and the pre-pass stays off. *)
  let pre_sharded =
    jobs > 1
    && (match score_kernel with
       | Some k -> Score_kernel.size k >= Score_kernel.shard_threshold
       | None -> false)
  in
  let pre_filter = Hashtbl.create 16 in
  let pre_batch = Hashtbl.create 16 in
  if pre_sharded then
    Obs.Trace.with_span "kernel_prepass" (fun () ->
        let textual_pairs =
          Array.to_list pairs
          |> List.filter_map (fun (src_tbl, src_attr) ->
                 let col = Column.of_table ~cache src_tbl src_attr in
                 if Relational.Attribute.is_textual (Column.attribute col) then
                   Some (Table.name src_tbl, src_attr, col)
                 else None)
        in
        (* a failing profile is left for its unit to re-raise, so the
           quarantine report stays identical to the non-sharded run *)
        ignore
          (Runtime.Pool.map_list pool
             (fun (_, _, col) ->
               match Column.profile col with _ -> () | exception _ -> ())
             textual_pairs);
        let qgram_in_suite =
          List.exists (fun (mm : Matcher.t) -> mm.Matcher.kernel = Matcher.Qgram_cosine) matchers
        in
        List.iter
          (fun (tname, attr, col) ->
            match Column.profile col with
            | exception _ -> ()
            | profile -> (
              match (filter, score_kernel) with
              | Some { k; tau }, _ ->
                Hashtbl.replace pre_filter (tname, attr)
                  (qgram_candidates ~pool ~kernel:score_kernel ~target_cols profile ~k ~tau)
              | None, Some kern when qgram_in_suite ->
                Hashtbl.replace pre_batch (tname, attr) (Score_kernel.scores ~pool kern profile)
              | None, _ -> ()))
          textual_pairs);
  let score_pair (src_tbl, src_attr) =
    let src_name = Table.name src_tbl in
    Robust.Fault.check Robust.Fault.Matcher_score ~key:(src_name ^ "." ^ src_attr);
    let src_col = Column.of_table ~cache src_tbl src_attr in
    let src_textual = Relational.Attribute.is_textual (Column.attribute src_col) in
    (* Candidate filter: top-k q-gram candidate retrieval for this
       source attribute.  Filterable matchers then score their
       textual-textual pairs only against survivors; every other
       (matcher, pair) combination is untouched.  The survivor table
       also memoises the filter probe's exact cosines, which the q-gram
       matcher reuses directly — the filter pays for that matcher's
       scoring, it never duplicates it. *)
    let filter_cands =
      match filter with
      | Some { k; tau } when src_textual ->
        let cands =
          match Hashtbl.find_opt pre_filter (src_name, src_attr) with
          | Some cands -> cands
          | None ->
            qgram_candidates ~kernel:score_kernel ~target_cols (Column.profile src_col) ~k ~tau
        in
        let tbl = Hashtbl.create 32 in
        List.iter (fun (key, s) -> Hashtbl.replace tbl key s) cands;
        Some tbl
      | _ -> None
    in
    let pruned = ref 0 in
    let bp_scores =
      List.map
        (fun matcher ->
          let filterable = Matchers.filterable matcher in
          (* Raw scores of this matcher from this source attribute to
             every applicable target attribute. *)
          (* Inapplicable pairs count as score 0 in the distribution
             (they are real alternatives the matcher cannot rank),
             anchoring the z-normalisation at an absolute floor; but
             they never contribute a confidence to the combination
             step.  Filtered-out pairs are treated the same way: the
             0 stays in the distribution, the pair contributes no
             confidence. *)
          let scores = ref [] in
          let applicable = ref [] in
          let record tgt_table tgt_attr s =
            applicable := (tgt_table, tgt_attr, s) :: !applicable;
            scores := s :: !scores
          in
          let filtering = filter_cands <> None && filterable in
          (* The q-gram matcher is batch-scored through the inverted
             index: one pass over the source profile's postings replaces
             a merge join per target.  A target has a kernel slot iff it
             is textual, exactly the matcher's applicability for a
             textual source, and the batched cosines are bit-identical
             to the pairwise ones (see {!Textsim.Gram_index}), so this
             branch changes cost only.  Under an active filter the
             matcher reads the filter probe's cosines instead. *)
          let batch =
            match (matcher.Matcher.kernel, score_kernel) with
            | Matcher.Qgram_cosine, Some k when src_textual && not filtering ->
              let arr =
                match Hashtbl.find_opt pre_batch (src_name, src_attr) with
                | Some arr -> arr
                | None -> Score_kernel.scores k (Column.profile src_col)
              in
              Some (k, arr)
            | _ -> None
          in
          List.iter
            (fun tgt ->
              let tgt_attr = Column.name tgt.column in
              match filter_cands with
              | Some cands
                when filterable
                     && Relational.Attribute.is_textual (Column.attribute tgt.column) -> (
                match Hashtbl.find_opt cands (tgt.table, tgt_attr) with
                | Some s when matcher.Matcher.kernel = Matcher.Qgram_cosine ->
                  (* exact cosine from the filter probe; same clamp
                     [Matcher.score] applies *)
                  record tgt.table tgt_attr (Float.min 1.0 (Float.max 0.0 s))
                | Some _ -> record tgt.table tgt_attr (Matcher.score matcher src_col tgt.column)
                | None ->
                  incr pruned;
                  scores := 0.0 :: !scores)
              | Some _ | None -> (
                match batch with
                | Some (k, arr) -> (
                  match Score_kernel.slot k ~table:tgt.table ~attr:tgt_attr with
                  | Some slot ->
                    (* same clamp [Matcher.score] applies *)
                    record tgt.table tgt_attr (Float.min 1.0 (Float.max 0.0 arr.(slot)))
                  | None -> scores := 0.0 :: !scores)
                | None ->
                  if Matcher.applicable_pair matcher src_col tgt.column then
                    record tgt.table tgt_attr (Matcher.score matcher src_col tgt.column)
                  else scores := 0.0 :: !scores))
            target_cols;
          let stats =
            if !applicable <> [] then Some (Normalize.of_scores (Array.of_list !scores))
            else None
          in
          (matcher.Matcher.name, !applicable, stats))
        matchers
    in
    let bp_scored =
      List.fold_left (fun acc (_, applicable, _) -> acc + List.length applicable) 0 bp_scores
    in
    { bp_table = src_name; bp_attr = src_attr; bp_column = src_col; bp_scores; bp_scored;
      bp_pruned = !pruned }
  in
  let built =
    Obs.Trace.with_span "score_pairs" (fun () ->
        Runtime.Pool.map_array_results pool ~deadline score_pair pairs)
  in
  (* Deterministic merge: results arrive in pair-index order whatever
     the scheduling; every hash key is unique, so the tables end up
     identical to the sequential build's.  A failed unit quarantines
     exactly its source attribute: with a [report] the issue is
     recorded (in index order, so reports are jobs-invariant too) and
     the attribute simply contributes no raw scores or stats — without
     one, the first failure re-raises, preserving the legacy
     fail-fast contract. *)
  let source_cols = Hashtbl.create 64 in
  let stats = Hashtbl.create 256 in
  let raw = Hashtbl.create 4096 in
  let pairs_scored = ref 0 in
  let pairs_pruned = ref 0 in
  Array.iteri
    (fun i outcome ->
      match outcome with
      | Error e ->
        let src_tbl, src_attr = pairs.(i) in
        (match report with
        | None -> raise e
        | Some r ->
          Robust.Report.record r ~table:(Table.name src_tbl) ~attribute:src_attr
            Robust.Error.Build
            (Printf.sprintf "source attribute skipped: %s" (Printexc.to_string e)))
      | Ok bp ->
        pairs_scored := !pairs_scored + bp.bp_scored;
        pairs_pruned := !pairs_pruned + bp.bp_pruned;
        Hashtbl.replace source_cols (bp.bp_table, bp.bp_attr) bp.bp_column;
        List.iter
          (fun (matcher_name, applicable, st) ->
            List.iter
              (fun (tgt_table, tgt_attr, s) ->
                Hashtbl.replace raw
                  (bp.bp_table, bp.bp_attr, tgt_table, tgt_attr, matcher_name) s)
              applicable;
            match st with
            | Some st -> Hashtbl.replace stats (bp.bp_table, bp.bp_attr, matcher_name) st
            | None -> ())
          bp.bp_scores)
    built;
  (* Counters recorded from this deterministic merge (main domain,
     index order), so their values are identical at every jobs count. *)
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.add "match.source_attrs" (Array.length pairs);
    Obs.Metrics.add "match.target_cols" (List.length target_cols);
    Obs.Metrics.add "match.raw_scores" (Hashtbl.length raw);
    Obs.Metrics.add "plan.pairs_scored" !pairs_scored;
    Obs.Metrics.add "plan.pairs_pruned" !pairs_pruned
  end;
  {
    gated;
    matchers;
    pairs_scored = !pairs_scored;
    pairs_pruned = !pairs_pruned;
    source_db = source;
    target_db = target;
    target_cols;
    target_index;
    source_cols;
    stats;
    raw;
    cache;
    tgt_cache;
    kernel = score_kernel;
  }

(* Top-k retrieval by raw q-gram cosine over an already-built model;
   see [qgram_candidates] for the kernel/exact equivalence contract. *)
let top_qgram_matches m ~src_table ~src_attr ~k ~tau =
  match Hashtbl.find_opt m.source_cols (src_table, src_attr) with
  | None -> []
  | Some src_col when not (Relational.Attribute.is_textual (Column.attribute src_col)) -> []
  | Some src_col ->
    qgram_candidates ~kernel:m.kernel ~target_cols:m.target_cols (Column.profile src_col) ~k ~tau

let confidence m ~src_table ~src_attr ~tgt_table ~tgt_attr =
  let weighted =
    List.filter_map
      (fun (matcher : Matcher.t) ->
        match
          Hashtbl.find_opt m.raw (src_table, src_attr, tgt_table, tgt_attr, matcher.name)
        with
        | None -> None
        | Some score -> (
          match Hashtbl.find_opt m.stats (src_table, src_attr, matcher.name) with
          | None -> None
          | Some st -> Some (matcher.weight, (if m.gated then Normalize.gated_confidence else Normalize.confidence) st score)))
      m.matchers
  in
  Normalize.combine weighted

let matches_from m ~src_table ~tau =
  let src_tbl = Database.table m.source_db src_table in
  let results = ref [] in
  List.iter
    (fun src_attr ->
      List.iter
        (fun tgt ->
          let tgt_attr = Column.name tgt.column in
          let conf = confidence m ~src_table ~src_attr ~tgt_table:tgt.table ~tgt_attr in
          if conf >= tau then
            results :=
              Schema_match.standard ~src_table ~src_attr ~tgt_table:tgt.table ~tgt_attr conf
              :: !results)
        m.target_cols)
    (Schema.attribute_names (Table.schema src_tbl));
  List.sort
    (fun (a : Schema_match.t) b -> Float.compare b.confidence a.confidence)
    !results

let matches m ~tau =
  Database.table_names m.source_db
  |> List.concat_map (fun src_table -> matches_from m ~src_table ~tau)
  |> List.sort (fun (a : Schema_match.t) b -> Float.compare b.confidence a.confidence)

let score_view m view ~src_attr ~tgt_table ~tgt_attr =
  if View.row_count view = 0 then 0.0
  else begin
    let src_table = Table.name (View.base view) in
    let src_col = Column.of_view ~cache:m.cache view src_attr in
    let weighted =
      List.filter_map
        (fun (matcher : Matcher.t) ->
          match Hashtbl.find_opt m.stats (src_table, src_attr, matcher.name) with
          | None -> None
          | Some st ->
            let tgt = Hashtbl.find_opt m.target_index (tgt_table, tgt_attr) in
            (match tgt with
            | None -> None
            | Some tgt when Matcher.applicable_pair matcher src_col tgt.column ->
              let s = Matcher.score matcher src_col tgt.column in
              Some (matcher.weight, (if m.gated then Normalize.gated_confidence else Normalize.confidence) st s)
            | Some _ -> None))
        m.matchers
    in
    Normalize.combine weighted
  end

let view_matches m view ~base_matches =
  (* Runs inside pool tasks: metrics only (sharded counters sum the
     same whatever the scheduling), no per-view span, to keep traces
     readable.  Each view is scored exactly once, so the counter is
     jobs-invariant. *)
  let observed = !Obs.Recorder.enabled in
  let score_start = if observed then Robust.Deadline.now_ns () else 0L in
  Fun.protect
    ~finally:(fun () ->
      if observed then begin
        Obs.Metrics.incr "match.views_scored";
        Obs.Metrics.observe_ns "match.view_score_ns"
          (Int64.sub (Robust.Deadline.now_ns ()) score_start)
      end)
  @@ fun () ->
  let base_name = Table.name (View.base view) in
  (* Reuse one Column per source attribute of the view across matchers:
     the Column caches its profile/summary internally, and the model's
     profile cache shares them with any other view on the same rows. *)
  let col_cache = Hashtbl.create 8 in
  let view_column attr =
    match Hashtbl.find_opt col_cache attr with
    | Some c -> c
    | None ->
      let c = Column.of_view ~cache:m.cache view attr in
      Hashtbl.add col_cache attr c;
      c
  in
  let score_one (bm : Schema_match.t) =
    if View.row_count view = 0 then None
    else begin
      let src_col = view_column bm.src_attr in
      let weighted =
        List.filter_map
          (fun (matcher : Matcher.t) ->
            match Hashtbl.find_opt m.stats (base_name, bm.src_attr, matcher.name) with
            | None -> None
            | Some st ->
              let tgt = Hashtbl.find_opt m.target_index (bm.tgt_table, bm.tgt_attr) in
              (match tgt with
              | Some tgt when Matcher.applicable_pair matcher src_col tgt.column ->
                let s = Matcher.score matcher src_col tgt.column in
                Some (matcher.weight, (if m.gated then Normalize.gated_confidence else Normalize.confidence) st s)
              | Some _ | None -> None))
          m.matchers
      in
      match weighted with
      | [] -> None
      | _ ->
        Some
          (Schema_match.contextual ~view_name:(View.name view) ~src_base:base_name
             ~src_attr:bm.src_attr ~tgt_table:bm.tgt_table ~tgt_attr:bm.tgt_attr
             ~condition:(View.condition view) (Normalize.combine weighted))
    end
  in
  (* Matches on the view's conditioning attribute(s) are not re-scored:
     the paper's views project the selection attribute away (§4.2,
     Example 4.1), and inside the view the column is constant anyway. *)
  let condition_attrs = Relational.Condition.attributes (View.condition view) in
  base_matches
  |> List.filter (fun (bm : Schema_match.t) ->
         String.equal bm.src_base base_name
         && not (List.mem bm.src_attr condition_attrs))
  |> List.filter_map score_one
