(* Inputs, fingerprints and the traced pipeline.

   [run_traced] rebuilds the one-shot pipeline (CSV text -> Csv_io
   parse -> Context_match.run -> Mapping_gen.plan -> execute) from the
   public calls Context_match.run makes internally: prepare_target,
   build, matches_from, infer, view_matches fanned out on the pool,
   Select_matches, then Mapping_gen, each wrapped in a span.  Its
   fingerprint must equal Context_match.run's bit for bit, or the trace
   would be measuring a different program. *)

open Relational

type tables = (string * string) list
(** (table name, CSV text): all the program is ever handed *)

let csv_of db = List.map (fun t -> (Table.name t, Csv_io.table_to_csv t)) (Database.tables db)

let parse name (tables : tables) =
  Database.make name (List.map (fun (n, text) -> Csv_io.table_of_csv ~name:n text) tables)

(* Selected and standard matches with their conditions and the exact
   bits of every confidence. *)
let fingerprint ~(matches : Matching.Schema_match.t list) ~standard =
  let lines ms =
    List.map
      (fun (m : Matching.Schema_match.t) ->
        Printf.sprintf "%s|%s|%s|%s.%s|%s|%h" m.src_owner m.src_base m.src_attr m.tgt_table
          m.tgt_attr
          (Condition.to_string m.condition)
          m.confidence)
      ms
  in
  String.concat "\n" (lines matches @ ("--" :: lines standard))

let result_fingerprint (r : Ctxmatch.Context_match.result) =
  fingerprint ~matches:r.Ctxmatch.Context_match.matches ~standard:r.Ctxmatch.Context_match.standard

type outcome = {
  fp : string;
  matches : Matching.Schema_match.t list;
  issues : int;  (** quarantined units of work; 0 on a clean run *)
  rows_out : int;  (** rows of every mapped target table *)
}

let rows_of db = List.fold_left (fun acc t -> acc + Table.row_count t) 0 (Database.tables db)

(* A 1% delta pair on [table]: appending k copies of existing rows, and
   deleting those same k rows again, so applying them in turn flips the
   table between two states.  Copies keep every gram inside the frozen
   kernel dictionary, so both deltas take the patch path. *)
let flip_deltas db ~table =
  let t = Database.table db table in
  let n = Table.row_count t in
  let k = max 1 (n / 100) in
  let appended = Array.init k (fun i -> (Table.rows t).(i * (n / k))) in
  ( appended,
    Delta.make ~table ~appends:appended ~deletes:[||],
    Delta.make ~table ~appends:[||] ~deletes:(Array.init k (fun i -> n + i)) )

(* Counts the traced run takes at the layer boundaries. *)
type counts = {
  pairs_scored : int;
  standard_accepted : int;
  cache_hits : int;
  cache_misses : int;
  profile_builds : int;
  views : int;
  useful_views : int;  (** scored views that own a selected match *)
}

(* [store]: the persistent profile store the serve daemon reads
   through.  [`Prepared p]: a target artefact prepared at set-up, as the serve
   daemon holds it; [`Csv t]: target CSV parsed and prepared inside the
   iteration, as a one-shot run does.  [map]: whether to run the
   mapping stages. *)
let run_traced ?store ~target ~map ~config ~algorithm ~(source : tables) () =
  let open Ctxmatch in
  let span = Spans.with_span in
  span "iteration" @@ fun () ->
  let source, target, prepared =
    span "csv_io.parse" (fun () ->
        match target with
        | `Prepared p -> (parse "source" source, Matching.Standard_match.prepared_target_db p, Some p)
        | `Csv tables -> (parse "source" source, parse "target" tables, None))
  in
  let jobs = config.Config.jobs in
  let report = Robust.Report.create () in
  let deadline = Robust.Deadline.none in
  let pool = Runtime.Pool.get ~jobs in
  let rng = Stats.Rng.create config.Config.seed in
  let infer = Context_match.infer_of algorithm ~target in
  let prepared =
    match prepared with
    | Some p -> p
    | None ->
      span "standard_match.prepare" (fun () ->
          Matching.Standard_match.prepare_target ?store ~kernel:config.Config.kernel ~target ())
  in
  let model =
    span "standard_match.build" (fun () ->
        Matching.Standard_match.build ~gated:config.Config.gated_confidence
          ~matchers:config.Config.matchers ~jobs ~report ~deadline ?store ~kernel:config.Config.kernel
          ~prepared ~source ~target ())
  in
  let views_total = ref 0 in
  let scored_views = ref [] in
  let per_table =
    List.map
      (fun source_table ->
        let src_name = Table.name source_table in
        let m =
          span "standard_match.matches_from" (fun () ->
              Matching.Standard_match.matches_from model ~src_table:src_name ~tau:config.Config.tau)
        in
        let families =
          span "infer" (fun () ->
              match infer.Infer.infer (Stats.Rng.split rng) config ~source_table ~matches:m with
              | families -> families
              | exception e ->
                Robust.Report.record report ~table:src_name Robust.Error.Infer
                  (Printexc.to_string e);
                [])
        in
        let views = Infer.views_of_families families in
        views_total := !views_total + List.length views;
        let family_attr_of view =
          match List.find_opt (fun f -> List.memq view f.View.views) families with
          | Some f -> f.View.attribute
          | None -> ""
        in
        let outcomes =
          span "standard_match.view" (fun () ->
              Runtime.Pool.map_list_results pool ~deadline
                (fun view -> Matching.Standard_match.view_matches model view ~base_matches:m)
                views)
        in
        let scored =
          List.concat
            (List.map2
               (fun view outcome ->
                 match outcome with
                 | Error e ->
                   Robust.Report.record report ~table:src_name Robust.Error.Score
                     (Printexc.to_string e);
                   []
                 | Ok [] -> []
                 | Ok view_matches ->
                   scored_views := View.name view :: !scored_views;
                   [ { Select_matches.view; family_attr = family_attr_of view; view_matches } ])
               views outcomes)
        in
        (m, scored))
      (Database.tables source)
  in
  let standard = List.concat_map fst per_table in
  let scored = List.concat_map snd per_table in
  let matches =
    span "select_matches" (fun () ->
        let target_tables = Database.table_names target in
        let omega = config.Config.omega and early_disjuncts = config.Config.early_disjuncts in
        match config.Config.select with
        | Config.Multi_table -> Select_matches.multi_table ~standard ~scored
        | Config.Qual_table ->
          Select_matches.qual_table ~jobs ~omega ~early_disjuncts ~standard ~scored ~target_tables ()
        | Config.Clio_qual_table ->
          Select_matches.clio_qual_table ~jobs ~omega ~early_disjuncts ~standard ~scored
            ~target_tables ())
  in
  let rows_out, map_issues =
    if not map then (0, 0)
    else begin
      let plan =
        span "mapping_gen.plan" (fun () -> Mapping.Mapping_gen.plan ~source ~target ~matches ())
      in
      let mapped, issues =
        span "mapping_gen.execute" (fun () -> Mapping.Mapping_gen.execute_all_report plan)
      in
      (rows_of mapped, List.length issues)
    end
  in
  let cache_hits, cache_misses = Matching.Standard_match.cache_stats model in
  let owners = List.map (fun (m : Matching.Schema_match.t) -> m.src_owner) matches in
  let counts =
    {
      pairs_scored = Matching.Standard_match.pairs_scored model;
      standard_accepted = List.length standard;
      cache_hits;
      cache_misses;
      profile_builds = Matching.Standard_match.profile_builds model;
      views = !views_total;
      useful_views =
        List.length (List.filter (fun v -> List.mem v owners) (List.sort_uniq compare !scored_views));
    }
  in
  ( {
      fp = fingerprint ~matches ~standard;
      matches;
      issues = Robust.Report.count report + map_issues;
      rows_out;
    },
    counts )

(* Median over traced iterations [(iteration, outcome, counts)] of [f]. *)
let per traced f = Pct.median (Array.of_list (List.map f traced))

(* Median self time of the spans called [name] per traced iteration. *)
let layer_ms traced name =
  per traced (fun (i, _, _) ->
      Option.value (Hashtbl.find_opt (Spans.self_ms_by_name ~iteration:i) name) ~default:0.0)

(* Per-layer metrics of traced iterations: each layer's self time and
   the counts taken at its boundary.  The prepare stage is left to the
   caller: the serve path prepares once, outside any iteration. *)
let layer_metrics traced =
  let per = per traced and layer = layer_ms traced in
  let count f = per (fun (_, _, c) -> float_of_int (f c)) in
  let ratio num den =
    per (fun (_, _, c) -> if den c = 0 then 0.0 else float_of_int (num c) /. float_of_int (den c))
  in
  [
    ("csv_io.parse_ms", layer "csv_io.parse");
    ("standard_match.build_ms", layer "standard_match.build");
    ("standard_match.pairs_scored", count (fun c -> c.pairs_scored));
    ("standard_match.accept_ratio", ratio (fun c -> c.standard_accepted) (fun c -> c.pairs_scored));
    ("profile_cache.hit_ratio", ratio (fun c -> c.cache_hits) (fun c -> c.cache_hits + c.cache_misses));
    ("profile_cache.builds", count (fun c -> c.profile_builds));
    ("infer.ms", layer "infer");
    ("infer.views", count (fun c -> c.views));
    ("standard_match.view_ms", layer "standard_match.view");
    ("standard_match.view_useful_ratio", ratio (fun c -> c.useful_views) (fun c -> c.views));
    ("select_matches.ms", layer "select_matches");
    ("mapping_gen.plan_ms", layer "mapping_gen.plan");
    ("mapping_gen.execute_ms", layer "mapping_gen.execute");
    ("mapping_gen.rows_out", per (fun (_, o, _) -> float_of_int o.rows_out));
  ]

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Allocation and major collections per operation between two GC
   snapshots. *)
let gc_metrics ~ops (gc0 : Gc.stat) (gc1 : Gc.stat) =
  let ops = float_of_int (max 1 ops) in
  [
    ("gc.minor_mb_per_op", mb_of_words (gc1.minor_words -. gc0.minor_words) /. ops);
    ("gc.major_per_op", float_of_int (gc1.major_collections - gc0.major_collections) /. ops);
  ]
