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
  (* whether this build prepared the target itself: only then are the
     target cache's lookups and builds this build's own *)
  inline_target : bool;
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

let target m = m.target_db
let profile_cache m = m.cache
let pairs_scored m = m.pairs_scored
let pairs_pruned m = m.pairs_pruned
let coded m table attr = Profile_cache.coded m.cache ~table ~attr

(* The caches whose work this build did: the source cache, and the
   target cache when the target was prepared inline.  A shared prepared
   target's lookups and builds happened once, at preparation. *)
let own_caches m = if m.inline_target then [ m.cache; m.tgt_cache ] else [ m.cache ]
let sum_caches f m = List.fold_left (fun acc c -> acc + f c) 0 (own_caches m)
let cache_stats m = (sum_caches Profile_cache.hits m, sum_caches Profile_cache.misses m)
let profile_builds m = sum_caches Profile_cache.builds m

(* Immutable prepared-target artefact: everything [build] derives from
   the target database alone — warmed columns, the (table, attr) index
   and the target-side profile cache.  A long-lived process (the serve
   daemon) prepares a target once and shares the artefact across
   requests, which then only score their own source against it;
   [build] over the same target with the same flags produces a
   bit-identical model either way, because the preparation below is
   exactly the code [build] used to run inline. *)
type prepared_target = {
  pt_target_db : Database.t;
  pt_cols : target_col list;
  pt_index : (string * string, target_col) Hashtbl.t;
  pt_cache : Profile_cache.t;
  pt_issues : Robust.Error.t list;
      (* target columns quarantined while warming, in column order;
         replayed into every consuming build's report so a run over a
         shared prepared target reports the same issues a one-shot run
         over the same target would *)
}

(* [kernel] has no effect; it stays in the signature for callers that
   still pass it. *)
let prepare_target ?store ?kernel:(_ : bool option) ?(fail_fast = false) ~target () =
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
  (* Target columns are warm and target families are never built: the
     coded columns their artefacts were counted from would only hold
     memory for the artefact's lifetime. *)
  Profile_cache.drop_coded tgt_cache;
  {
    pt_target_db = target;
    pt_cols = target_cols;
    pt_index = target_index;
    pt_cache = tgt_cache;
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
   re-tokenizing its text: the maintained artefacts are seeded into a
   fresh target cache under the exact keys the new columns will read,
   and every column of an unchanged table is reused verbatim — its
   artefacts are memoised in-object and immutable.  The original
   artefact is never mutated, so concurrent readers of the old
   generation stay valid and a failed patch leaves no trace. *)
let patch_prepared prepared ~table ~patches () =
  Obs.Trace.with_span "patch_prepared" @@ fun () ->
  let table_name = Table.name table in
  let new_db = Database.replace_table prepared.pt_target_db table in
  let new_cache = Profile_cache.create () in
  (match prepared.pt_cache.Profile_cache.store with
  | None -> ()
  | Some s ->
    Profile_cache.attach_store new_cache s;
    (* unchanged tables keep their digests; the patched table is
       digested from its new rows *)
    List.iter
      (fun tbl ->
        let name = Table.name tbl in
        match Profile_cache.table_digest prepared.pt_cache name with
        | Some d when not (String.equal name table_name) ->
          Profile_cache.register_digest new_cache ~table:name ~digest:d
        | Some _ | None -> Profile_cache.register_table new_cache tbl)
      (Database.tables new_db));
  (* Seed the maintained artefacts under the full-range keys
     [Column.of_table] registers, so warming the rebuilt columns hits
     the memo (and writes through to the store) instead of re-scanning
     rows. *)
  List.iter
    (fun cp ->
      let ((tbl, attr, subset) as k) =
        Profile_cache.full_key new_cache ~table:table_name ~attr:cp.cp_attr
          ~rows:(Table.row_count table)
      in
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
  {
    pt_target_db = new_db;
    pt_cols;
    pt_index;
    pt_cache = new_cache;
    pt_issues = prepared.pt_issues;
  }

let prepared_target_db p = p.pt_target_db
let prepared_issues p = p.pt_issues
let prepared_columns p = List.length p.pt_cols

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

(* Top-k candidate retrieval by raw q-gram cosine for the candidate
   filter: every textual target column is scored pairwise, and the
   survivors come best first, equal scores in target order (the sort is
   stable), so ties at the rank-k boundary go to the earlier target.
   Note [tau = 0.0] keeps zero-score textual targets (0 >= 0), so a
   filter with a full-width k degenerates to the unfiltered pipeline
   exactly. *)
let qgram_candidates target_cols profile ~k ~tau =
  List.filter_map
    (fun tgt ->
      if Relational.Attribute.is_textual (Column.attribute tgt.column) then
        Some
          ( (tgt.table, Column.name tgt.column),
            Textsim.Profile.cosine profile (Column.profile tgt.column) )
      else None)
    target_cols
  |> List.filter (fun (_, s) -> s >= tau)
  |> List.stable_sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < k)

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
  let inline_target = prepared = None in
  let prepared =
    match prepared with
    | Some p -> p
    | None -> prepare_target ?store ~fail_fast:(report = None) ~target ()
  in
  (match report with
  | Some r -> List.iter (Robust.Report.add r) prepared.pt_issues
  | None -> ());
  let target_cols = prepared.pt_cols in
  let target_index = prepared.pt_index in
  let tgt_cache = prepared.pt_cache in
  (* Id-space scoring of views over partition groups rides the kernel
     switch — the bench's kernel-off mode measures the legacy path; the
     scores are bit-identical either way. *)
  Profile_cache.set_partitioning cache kernel;
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
        let cands = qgram_candidates target_cols (Column.profile src_col) ~k ~tau in
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
          List.iter
            (fun tgt ->
              let tgt_attr = Column.name tgt.column in
              match filter_cands with
              | Some cands
                when filterable
                     && Relational.Attribute.is_textual (Column.attribute tgt.column) -> (
                match Hashtbl.find_opt cands (tgt.table, tgt_attr) with
                | Some s when matcher.Matcher.kernel = Matcher.Qgram_cosine ->
                  (* exact cosine from the filter probe *)
                  record tgt.table tgt_attr (Matcher.clamp s)
                | Some _ -> record tgt.table tgt_attr (Matcher.score matcher src_col tgt.column)
                | None ->
                  incr pruned;
                  scores := 0.0 :: !scores)
              | Some _ | None ->
                if Matcher.applicable_pair matcher src_col tgt.column then
                  record tgt.table tgt_attr (Matcher.score matcher src_col tgt.column)
                else scores := 0.0 :: !scores)
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
    inline_target;
  }

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

(* The raw score of one matcher for a view column against a target.  A
   composed view column is scored in its family's id space wherever the
   matcher's hint names the computation: the schema-only matchers reuse
   the base column's raw score (a view column carries its base
   column's attribute), and the overlap matchers run on the view's
   family ids against the target translated into the family — each the
   float [Matcher.score] would return on the row-scanned view column.
   Every other case is [Matcher.score]. *)
let view_score m ~src_table ~src_attr col tgt (matcher : Matcher.t) =
  let tgt_key = (tgt.table, Column.name tgt.column) in
  let generic () = Matcher.score matcher col tgt.column in
  match (Column.composed col, matcher.kernel) with
  | None, _ | Some _, Matcher.No_kernel -> generic ()
  | Some _, Matcher.Schema_only -> (
    match
      Hashtbl.find_opt m.raw (src_table, src_attr, fst tgt_key, snd tgt_key, matcher.name)
    with
    | Some s -> s
    | None -> generic ())
  | Some c, Matcher.Qgram_cosine ->
    let fam, counts = Lazy.force c.Column.grams in
    Matcher.clamp
      (Profile_cache.cosine counts
         (Profile_cache.target_counts fam tgt_key (fun () -> Column.profile tgt.column)))
  | Some c, Matcher.Word_jaccard ->
    let fam, ids = Lazy.force c.Column.word_ids in
    Matcher.clamp
      (Profile_cache.jaccard ids
         (Profile_cache.target_set fam tgt_key (fun () -> Column.words tgt.column)))
  | Some c, Matcher.Value_jaccard ->
    let fam, ids = Lazy.force c.Column.value_ids in
    Matcher.clamp
      (Profile_cache.jaccard ids
         (Profile_cache.target_set fam tgt_key (fun () -> Column.distinct_strings tgt.column)))

(* The raw scores of one view column against one target attribute: for
   every matcher with normalisation stats for the source attribute and
   applicable to the pair, the matcher, its stats and its raw score, in
   suite order. *)
let view_raw m ~src_table ~src_attr src_col ~tgt_table ~tgt_attr =
  match Hashtbl.find_opt m.target_index (tgt_table, tgt_attr) with
  | None -> []
  | Some tgt ->
    List.filter_map
      (fun (matcher : Matcher.t) ->
        match Hashtbl.find_opt m.stats (src_table, src_attr, matcher.name) with
        | Some st when Matcher.applicable_pair matcher src_col tgt.column ->
          Some (matcher, st, view_score m ~src_table ~src_attr src_col tgt matcher)
        | Some _ | None -> None)
      m.matchers

(* Each raw score's weight and (gated) confidence: the list
   [Normalize.combine] folds. *)
let view_confidences m ~src_table ~src_attr src_col ~tgt_table ~tgt_attr =
  List.map
    (fun ((matcher : Matcher.t), st, s) ->
      ( matcher.weight,
        (if m.gated then Normalize.gated_confidence else Normalize.confidence) st s ))
    (view_raw m ~src_table ~src_attr src_col ~tgt_table ~tgt_attr)

let score_view m view ~src_attr ~tgt_table ~tgt_attr =
  if View.row_count view = 0 then 0.0
  else
    Normalize.combine
      (view_confidences m ~src_table:(Table.name (View.base view)) ~src_attr
         (Column.of_view ~cache:m.cache view src_attr)
         ~tgt_table ~tgt_attr)

let view_scores m view ~src_attr ~tgt_table ~tgt_attr =
  if View.row_count view = 0 then []
  else
    List.map
      (fun ((matcher : Matcher.t), _, s) -> (matcher.name, s))
      (view_raw m ~src_table:(Table.name (View.base view)) ~src_attr
         (Column.of_view ~cache:m.cache view src_attr)
         ~tgt_table ~tgt_attr)

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
  (* One Column per source attribute of the view across matchers: the
     Column holds its artefacts, composed from its partition family or
     shared through the model's profile cache with any other view on
     the same rows. *)
  let view_column = Column.view_columns ~cache:m.cache view in
  let score_one (bm : Schema_match.t) =
    if View.row_count view = 0 then None
    else
      match
        view_confidences m ~src_table:base_name ~src_attr:bm.src_attr
          (view_column bm.src_attr) ~tgt_table:bm.tgt_table ~tgt_attr:bm.tgt_attr
      with
      | [] -> None
      | weighted ->
        Some
          (Schema_match.contextual ~view_name:(View.name view) ~src_base:base_name
             ~src_attr:bm.src_attr ~tgt_table:bm.tgt_table ~tgt_attr:bm.tgt_attr
             ~condition:(View.condition view) (Normalize.combine weighted))
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
