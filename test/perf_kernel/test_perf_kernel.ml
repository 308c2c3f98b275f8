(* Differential oracle for the scoring kernel (DESIGN.md, "Scoring
   kernel").  Every fast path — view scores composed from
   condition-attribute partitions in their family's id space — must
   produce results *bit-identical* to the pairwise path
   ([Profile.cosine] over row re-scans): same grams, same counts, same
   float bits.  Floats are compared via their IEEE bits (or %h
   fingerprints), so any accumulation-order drift fails loudly, not
   just drift above an epsilon. *)

open Relational

let check_bits what a b =
  Alcotest.(check string) what (Printf.sprintf "%h" a) (Printf.sprintf "%h" b)

(* --- partitioned view scoring --------------------------------------- *)

let retail_table () =
  let params = { Workload.Retail.default_params with rows = 150; target_rows = 60 } in
  Database.table (Workload.Retail.source params) Workload.Retail.source_table_name

let fp_scores l = String.concat ";" (List.map (fun (n, s) -> Printf.sprintf "%s=%h" n s) l)

(* Every raw score view scoring gives [view] against every target
   column of [model], next to its oracle: [Matcher.score] of each
   applicable default-suite matcher on the cache-less, row-scanned view
   column.  Each entry is (what, oracle, view scoring). *)
let view_score_pairs model view src_attrs =
  List.concat_map
    (fun src_attr ->
      let rescan = Matching.Column.of_view view src_attr in
      List.concat_map
        (fun tbl ->
          List.map
            (fun tgt_attr ->
              let tgt_col = Matching.Column.of_table tbl tgt_attr in
              let oracle =
                List.filter_map
                  (fun (m : Matching.Matcher.t) ->
                    if Matching.Matcher.applicable_pair m rescan tgt_col then
                      Some (m.name, Matching.Matcher.score m rescan tgt_col)
                    else None)
                  Matching.Matchers.default_suite
              in
              ( Printf.sprintf "%s.%s ~ %s.%s" (View.name view) src_attr (Table.name tbl) tgt_attr,
                oracle,
                Matching.Standard_match.view_scores model view ~src_attr
                  ~tgt_table:(Table.name tbl) ~tgt_attr ))
            (Schema.attribute_names (Table.schema tbl)))
        (Database.tables (Matching.Standard_match.target model)))
    src_attrs

let composes model view attr =
  Matching.Column.composed
    (Matching.Column.of_view ~cache:(Matching.Standard_match.profile_cache model) view attr)
  <> None

let check_view_scores model view src_attrs =
  List.iter
    (fun attr ->
      Alcotest.(check bool) (View.name view ^ "." ^ attr ^ " composes") true
        (composes model view attr))
    src_attrs;
  List.iter
    (fun (what, oracle, got) ->
      Alcotest.(check string) (what ^ ": raw scores bit-identical") (fp_scores oracle)
        (fp_scores got))
    (view_score_pairs model view src_attrs)

let test_partition_compose () =
  let tbl = retail_table () in
  let params = { Workload.Retail.default_params with rows = 150; target_rows = 60 } in
  let model =
    Matching.Standard_match.build ~source:(Database.make "src" [ tbl ])
      ~target:(Workload.Retail.target params Workload.Retail.Ryan_eyers)
      ()
  in
  let item_type = Workload.Retail.item_type_attr in
  let families =
    View.partition_family tbl item_type
    :: View.partition_family tbl Workload.Retail.stock_status_attr
    :: [
         View.family_of_values tbl item_type
           [
             Workload.Retail.book_labels ~gamma:4;
             Workload.Retail.cd_labels ~gamma:4;
           ];
       ]
  in
  List.iter
    (fun family ->
      List.iter
        (fun view -> check_view_scores model view [ "Title"; "Creator"; "Price"; "ItemID" ])
        family.View.views)
    families

let mixed_target () =
  Database.make "tgt"
    [
      Table.make
        (Schema.make "t" [ Attribute.string "word"; Attribute.int "num"; Attribute.string "none" ])
        [
          [| Value.String "uno"; Value.Int 1; Value.Null |];
          [| Value.String "one two"; Value.Int 2; Value.Null |];
          [| Value.String "qqq zzz"; Value.Null; Value.Null |];
        ];
    ]

(* Condition values that are equal under [Value.compare] but distinct
   constructors ([In (k, [1; 1.])]) select each row once; composition
   must not double-count the shared partition. *)
let test_partition_compose_mixed_numeric () =
  let schema =
    Schema.make "mixed" [ Attribute.int "k"; Attribute.string "txt" ]
  in
  let tbl =
    Table.make schema
      [
        [| Value.Int 1; Value.String "one one" |];
        [| Value.Int 2; Value.String "two" |];
        [| Value.Null; Value.String "null row" |];
        [| Value.Int 1; Value.String "uno" |];
      ]
  in
  let view = View.make tbl (Condition.In ("k", [ Value.Int 1; Value.Float 1.0 ])) in
  let model =
    Matching.Standard_match.build ~source:(Database.make "src" [ tbl ]) ~target:(mixed_target ()) ()
  in
  Alcotest.(check int) "view selects the Int 1 rows" 2 (View.row_count view);
  check_view_scores model view [ "txt" ]

(* Targets whose grams and words no family holds, an empty target
   column, and sets empty on both sides (Jaccard 1.0). *)
let test_view_scores_edges () =
  let schema =
    Schema.make "edges" [ Attribute.string "k"; Attribute.string "txt"; Attribute.int "n" ]
  in
  let tbl =
    Table.make schema
      [
        [| Value.String "a"; Value.String "uno"; Value.Int 1 |];
        [| Value.String "b"; Value.Null; Value.Null |];
        [| Value.String "b"; Value.Null; Value.Null |];
        [| Value.String "c"; Value.String "\xc3\xa9"; Value.Int 7 |];
      ]
  in
  let model =
    Matching.Standard_match.build ~source:(Database.make "src" [ tbl ]) ~target:(mixed_target ()) ()
  in
  List.iter
    (fun v ->
      check_view_scores model (View.make tbl (Condition.Eq ("k", Value.String v))) [ "txt"; "n" ])
    [ "a"; "b"; "c" ];
  let empty_both = View.make tbl (Condition.Eq ("k", Value.String "b")) in
  let scores = Matching.Standard_match.view_scores model empty_both ~src_attr:"txt" in
  List.iter
    (fun matcher ->
      check_bits ("both sets empty: " ^ matcher) 1.0
        (List.assoc matcher (scores ~tgt_table:"t" ~tgt_attr:"none")))
    [ "word"; "value-overlap" ];
  check_bits "no shared word" 0.0
    (List.assoc "word"
       (Matching.Standard_match.view_scores model
          (View.make tbl (Condition.Eq ("k", Value.String "c")))
          ~src_attr:"txt" ~tgt_table:"t" ~tgt_attr:"word"))

(* --- end-to-end -------------------------------------------------------- *)

let fp_match (m : Matching.Schema_match.t) =
  Printf.sprintf "%s|%s|%s|%s.%s|%s|%h" m.src_owner m.src_base m.src_attr m.tgt_table
    m.tgt_attr
    (Condition.to_string m.condition)
    m.confidence

let fp_scored (sv : Ctxmatch.Select_matches.scored_view) =
  Printf.sprintf "%s|%s|[%s]" (View.name sv.view) sv.family_attr
    (String.concat ";" (List.map fp_match sv.view_matches))

let fingerprint (r : Ctxmatch.Context_match.result) =
  String.concat "\n"
    (("matches:" :: List.map fp_match r.matches)
    @ ("standard:" :: List.map fp_match r.standard)
    @ (Printf.sprintf "views:%d" r.candidate_view_count :: List.map fp_scored r.scored))

let retail_run ?store ~kernel ~jobs ~seed () =
  let params = { Workload.Retail.default_params with rows = 120; target_rows = 60; seed } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let config =
    Ctxmatch.Config.with_kernel
      (Ctxmatch.Config.with_jobs (Ctxmatch.Config.with_seed Ctxmatch.Config.default seed) jobs)
      kernel
  in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  Ctxmatch.Context_match.run ~config ?store ~infer ~source ~target ()

let test_end_to_end_identical () =
  List.iter
    (fun seed ->
      let oracle = fingerprint (retail_run ~kernel:false ~jobs:1 ~seed ()) in
      List.iter
        (fun (kernel, jobs) ->
          Alcotest.(check string)
            (Printf.sprintf "seed=%d kernel=%b jobs=%d = legacy sequential" seed kernel jobs)
            oracle
            (fingerprint (retail_run ~kernel ~jobs ~seed ())))
        [ (true, 1); (true, 4); (false, 4) ])
    [ 1; 7 ]

let in_temp_dir f =
  let dir = Filename.temp_file "ctxkernel" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* Stored artefacts serialise by gram string, never by interner id, and
   a kernel run stores no per-view or per-group artefact: it scores
   views in their family's id space, and counts families from coded
   columns.  A store written by a kernel run therefore warms a kernel
   run with zero recomputation, and a legacy run with exactly its
   row-scanned view artefacts recomputed (base artefacts all come from
   the store).  Here that is 96: 6 views, each scoring 3 textual
   attributes (profile, distinct and word set), 3 int attributes
   (summary and distinct set) and 1 float attribute (summary).  The
   legacy run writes those through, so once it is flushed the store
   warms both modes with zero recomputation. *)
let test_store_interner_independent () =
  in_temp_dir @@ fun dir ->
  let cold_store = Store.open_dir dir in
  let cold = retail_run ~store:cold_store ~kernel:true ~jobs:1 ~seed:3 () in
  Store.flush cold_store;
  let warm ~kernel what builds =
    let warm_store = Store.open_dir dir in
    let warm = retail_run ~store:warm_store ~kernel ~jobs:1 ~seed:3 () in
    Alcotest.(check string)
      (Printf.sprintf "%s: warm kernel=%b identical to cold" what kernel)
      (fingerprint cold) (fingerprint warm);
    Alcotest.(check int)
      (Printf.sprintf "%s: warm kernel=%b rebuilds" what kernel)
      builds warm.Ctxmatch.Context_match.profile_builds;
    warm_store
  in
  ignore (warm ~kernel:true "kernel-written store" 0);
  Store.flush (warm ~kernel:false "kernel-written store" 96);
  ignore (warm ~kernel:false "legacy-healed store" 0);
  ignore (warm ~kernel:true "legacy-healed store" 0)

(* --- wide targets -------------------------------------------------------- *)

(* Retail has 6 textual target columns; this target has 320, so q-gram
   scoring and the candidate filter's probes dominate the build.  A
   source with a few textual attributes (and one numeric) must build
   the same model at every jobs count, kernel on or off, under each
   filter: the same matches bit for bit and the same pairs
   accounting. *)
let wide_dbs () =
  let words = [| "alpha"; "bravo"; "charlie"; "delta"; "echo"; "foxtrot"; "golf"; "hotel" |] in
  let cell c r =
    Printf.sprintf "%s %s %d" words.(c mod 8) words.((c / 8 + r) mod 8) (((c * 7) + r) mod 13)
  in
  let text_table name cols rows =
    Table.make
      (Schema.make name
         (List.init cols (fun c -> Attribute.string (Printf.sprintf "c%d" c))
         @ [ Attribute.int "n" ]))
      (List.init rows (fun r ->
           Array.append
             (Array.init cols (fun c -> Value.String (cell (c * 5) r)))
             [| Value.Int (r mod 4) |]))
  in
  ( Database.make "wide_src" [ text_table "src" 3 8 ],
    Database.make "wide_tgt" [ text_table "tgt" 320 8 ] )

let test_wide_target_identical () =
  let source, target = wide_dbs () in
  let model ~jobs ~kernel filter =
    Matching.Standard_match.build ~jobs ~kernel ?filter ~source ~target ()
  in
  let fp m =
    String.concat "\n"
      (List.map fp_match (Matching.Standard_match.matches m ~tau:0.0)
      @ [
          Printf.sprintf "scored=%d pruned=%d" (Matching.Standard_match.pairs_scored m)
            (Matching.Standard_match.pairs_pruned m);
        ])
  in
  List.iter
    (fun filter ->
      let what = Matching.Standard_match.filter_to_string filter in
      let oracle = model ~jobs:1 ~kernel:false filter in
      if filter <> None then
        Alcotest.(check bool) (what ^ ": the filter prunes") true
          (Matching.Standard_match.pairs_pruned oracle > 0);
      List.iter
        (fun (jobs, kernel) ->
          Alcotest.(check string)
            (Printf.sprintf "%s jobs=%d kernel=%b = sequential legacy" what jobs kernel)
            (fp oracle)
            (fp (model ~jobs ~kernel filter)))
        [ (1, true); (4, true); (4, false) ])
    [ None; Some { Matching.Standard_match.k = 3; tau = 0.0 }; Some { k = 3; tau = 0.2 } ]

(* --- qcheck properties -------------------------------------------------- *)

(* Small alphabet so grams collide heavily across random profiles. *)
let words_gen =
  QCheck.Gen.(
    list_size (0 -- 4) (string_size (1 -- 8) ~gen:(char_range 'a' 'e'))
    |> map (String.concat " "))

(* CSR family composition round-trip: for random partitioned tables and
   random slot subsets, the arena-composed counts must be the exact
   count bag of the boxed sum of the groups' string-path profiles, and
   score bit-identically to a raw re-tokenisation of the selected
   rows. *)
let qcheck_compose =
  let gen =
    QCheck.Gen.(pair (list_size (1 -- 6) (list_size (0 -- 5) words_gen)) (1 -- 63))
  in
  QCheck.Test.make ~name:"CSR family composition = boxed sum = raw re-scan" ~count:100
    (QCheck.make gen)
    (fun (groups, mask) ->
      let rows =
        List.concat (List.mapi (fun g strs -> List.map (fun s -> (g, s)) strs) groups)
      in
      let schema = Schema.make "fam" [ Attribute.int "k"; Attribute.string "txt" ] in
      let tbl =
        Table.make schema
          (List.map (fun (g, s) -> [| Value.Int g; Value.String s |]) rows)
      in
      let sub_strings indices = Oracle.Strings.cells tbl "txt" indices in
      let cache = Matching.Profile_cache.create () in
      Matching.Profile_cache.set_partitioning cache true;
      let fam = Matching.Profile_cache.family cache ~table:tbl ~cond_attr:"k" ~attr:"txt" in
      let part = Matching.Profile_cache.partition cache ~table:tbl ~cond_attr:"k" in
      let n = Array.length part.Matching.Profile_cache.part_indices in
      let slots = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
      match slots with
      | [] -> true
      | slots ->
        let composed = Matching.Profile_cache.compose_counts fam slots in
        let composed_counts =
          Array.map2
            (fun id c -> (Textsim.Gram_dict.gram fam.Matching.Profile_cache.fam_dict id, c))
            composed.Matching.Profile_cache.vc_ids composed.Matching.Profile_cache.vc_counts
        in
        (* the groups' profiles as the string path builds them *)
        let group s =
          Oracle.Strings.profile (sub_strings part.Matching.Profile_cache.part_indices.(s))
        in
        let boxed =
          Textsim.Profile.of_counts
            (List.concat_map (fun s -> Array.to_list (Textsim.Profile.counts (group s))) slots
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
            |> List.fold_left
                 (fun acc (g, c) ->
                   match acc with
                   | (g', c') :: rest when String.equal g g' -> (g, c + c') :: rest
                   | _ -> (g, c) :: acc)
                 []
            |> List.rev |> Array.of_list)
        in
        let raw =
          Textsim.Profile.of_strings
            (List.concat_map
               (fun s -> sub_strings part.Matching.Profile_cache.part_indices.(s))
               slots)
        in
        let probe = Textsim.Profile.of_strings [ "abc ea bdbd" ] in
        let oracle_cos = Printf.sprintf "%h" (Textsim.Profile.cosine raw probe) in
        composed_counts = Textsim.Profile.counts boxed
        && composed_counts = Textsim.Profile.counts raw
        && composed.Matching.Profile_cache.vc_total = Textsim.Profile.total raw
        && Printf.sprintf "%h" composed.Matching.Profile_cache.vc_norm
           = Printf.sprintf "%h" (Textsim.Profile.norm raw)
        && Printf.sprintf "%h"
             (Textsim.Profile.cosine (Textsim.Profile.of_counts composed_counts) probe)
           = oracle_cos
        && Printf.sprintf "%h"
             (Matching.Profile_cache.cosine composed
                (Matching.Profile_cache.target_counts fam ("probe", "p") (fun () -> probe)))
           = oracle_cos)

(* --- view scores = row re-scan scores --------------------------------- *)

(* Condition cells: nulls, [Int 1] next to [Float 1.] (one partition
   group under [Value.compare]); condition lists add values absent from
   every table and repeat present ones. *)
let k_pool =
  [| Value.Null; Value.Int 1; Value.Float 1.0; Value.Int 2; Value.Float 2.5; Value.Int 3 |]

let cond_pool =
  [| Value.Int 1; Value.Float 1.0; Value.Int 2; Value.Float 2.5; Value.Int 3; Value.Int 9;
     Value.Float 7.5 |]

(* Empty, shared-prefix and non-ASCII strings. *)
let txt_pool =
  [| ""; "a"; "ab"; "abc"; "abcd"; "abd"; "\xc3\xa9"; "\xc3\xa9a"; "\xe6\x97\xa5\xe6\x9c\xac";
     "\xe6\x97\xa5\xe6\x9c\xac\xe8\xaa\x9e"; "na\xc3\xafve caf\xc3\xa9"; "a b"; "b a" |]

(* Target text whose grams and words no source family holds. *)
let alien_pool = [| "qqq"; "zzz yyy"; "xwv"; "QQQ 99" |]

let view_case_gen =
  QCheck.Gen.(
    let opt p gen = frequency [ (1, return Value.Null); (p, gen) ] in
    let txt =
      opt 5
        (frequency
           [
             (3, map (fun s -> Value.String s) (oneofa txt_pool));
             (2, map (fun s -> Value.String s) words_gen);
           ])
    in
    let n = opt 4 (map (fun i -> Value.Int i) (0 -- 5)) in
    let alien = opt 3 (map (fun s -> Value.String s) (oneofa alien_pool)) in
    quad
      (list_size (0 -- 24) (triple (oneofa k_pool) txt n))
      (list_size (1 -- 6) (list_size (1 -- 4) (oneofa cond_pool)))
      bool
      (list_size (0 -- 6) (triple txt alien n)))

(* Every view of a random table, scored through a kernel model (its
   families built up front or on first touch), against
   [Matcher.score] on the cache-less, row-scanned view column: q-gram,
   word, value-overlap, name and type scores of the text attribute, and
   value-overlap, numeric, range, name and type scores of the int
   attribute, against text, alien-text, empty and int target columns. *)
let qcheck_view_scores =
  QCheck.Test.make ~name:"view scores = row re-scan scores" ~count:200
    (QCheck.make view_case_gen)
    (fun (rows, conds, warm, trows) ->
      let schema =
        Schema.make "comp" [ Attribute.float "k"; Attribute.string "txt"; Attribute.int "n" ]
      in
      let tbl = Table.make schema (List.map (fun (k, t, n) -> [| k; t; n |]) rows) in
      let target =
        Database.make "tgt"
          [
            Table.make
              (Schema.make "tg"
                 [
                   Attribute.string "tt";
                   Attribute.string "alien";
                   Attribute.int "tn";
                   Attribute.string "empty";
                 ])
              (List.map (fun (t, a, n) -> [| t; a; n; Value.Null |]) trows);
          ]
      in
      let model =
        Matching.Standard_match.build ~source:(Database.make "src" [ tbl ]) ~target ()
      in
      if warm then begin
        let cache = Matching.Standard_match.profile_cache model in
        List.iter
          (fun attr ->
            ignore (Matching.Profile_cache.family cache ~table:tbl ~cond_attr:"k" ~attr);
            List.iter
              (fun kind ->
                ignore (Matching.Profile_cache.set_family cache ~table:tbl ~cond_attr:"k" ~attr kind))
              Matching.Profile_cache.[ Values; Words ])
          [ "txt"; "n" ]
      end;
      List.for_all
        (fun vs ->
          let cond = match vs with [ v ] -> Condition.Eq ("k", v) | vs -> Condition.In ("k", vs) in
          let view = View.make tbl cond in
          View.row_count view = 0
          || composes model view "txt"
             && composes model view "n"
             && List.for_all
                  (fun (_, oracle, got) -> fp_scores oracle = fp_scores got)
                  (view_score_pairs model view [ "txt"; "n" ]))
        conds)

(* The per-domain scratch vector is shared by every composition on a
   domain: composing from a large family, then a small one, then the
   large one again — and again after a composition that raised half-way
   through — must each equal a composition on a fresh domain, whose
   scratch has never been used. *)
let test_compose_scratch_reuse () =
  let table name groups =
    let schema = Schema.make name [ Attribute.int "k"; Attribute.string "txt" ] in
    Table.make schema
      (List.concat
         (List.mapi
            (fun g strs -> List.map (fun s -> [| Value.Int g; Value.String s |]) strs)
            groups))
  in
  let large =
    table "large"
      (List.init 30 (fun g ->
           List.init 5 (fun i ->
               let run = String.make (1 + (g mod 7)) (Char.chr (97 + ((g + i) mod 26))) in
               Printf.sprintf "title %d-%d %s" g i run)))
  in
  let small = table "small" [ [ "ab" ]; [ "ba"; "ab" ] ] in
  let cache = Matching.Profile_cache.create () in
  let fam tbl = Matching.Profile_cache.family cache ~table:tbl ~cond_attr:"k" ~attr:"txt" in
  let sets tbl =
    Matching.Profile_cache.set_family cache ~table:tbl ~cond_attr:"k" ~attr:"txt"
      Matching.Profile_cache.Words
  in
  let same_counts (a : Matching.Profile_cache.view_counts) (b : Matching.Profile_cache.view_counts)
      =
    a.vc_ids = b.vc_ids && a.vc_counts = b.vc_counts && a.vc_total = b.vc_total
    && Printf.sprintf "%h" a.vc_norm = Printf.sprintf "%h" b.vc_norm
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let check (tbl, slots) =
    let what =
      Printf.sprintf "%s %s" (Table.name tbl) (String.concat "," (List.map string_of_int slots))
    in
    let f = fam tbl and s = sets tbl in
    let p = Matching.Profile_cache.compose_counts f slots in
    let p' = on_fresh_domain (fun () -> Matching.Profile_cache.compose_counts f slots) in
    Alcotest.(check bool) (what ^ ": counts = fresh compose") true (same_counts p p');
    Alcotest.(check (array int))
      (what ^ ": set = fresh compose")
      (on_fresh_domain (fun () -> Matching.Profile_cache.compose_ids s slots))
      (Matching.Profile_cache.compose_ids s slots)
  in
  Alcotest.(check bool) "large vocabulary dwarfs the small one" true
    (Textsim.Gram_dict.size (fam large).Matching.Profile_cache.fam_dict
    > 10 * Textsim.Gram_dict.size (fam small).Matching.Profile_cache.fam_dict);
  List.iter check [ (large, [ 0; 3; 7; 12; 29 ]); (small, [ 0; 1 ]); (large, [ 1; 3; 29 ]) ];
  (match Matching.Profile_cache.compose_counts (fam large) [ 0; 1; 999 ] with
  | _ -> Alcotest.fail "slot 999 does not exist"
  | exception Invalid_argument _ -> ());
  check (large, [ 0; 1; 2 ]);
  (match Matching.Profile_cache.compose_ids (sets large) [ 4; 5; 999 ] with
  | _ -> Alcotest.fail "slot 999 does not exist"
  | exception Invalid_argument _ -> ());
  check (large, [ 4; 5; 6 ])

(* A view column's cache key is (base table, attribute, digest of the
   view's row indices), however the column was made — the artefact its
   profile lookup leaves behind is the one that key finds. *)
let test_view_column_key () =
  let tbl = retail_table () in
  let view =
    View.make tbl
      (Condition.In (Workload.Retail.item_type_attr, Workload.Retail.book_labels ~gamma:4))
  in
  List.iter
    (fun (how, column) ->
      let cache = Matching.Profile_cache.create () in
      let p = Matching.Column.profile (column cache "Title") in
      let key =
        Matching.Profile_cache.key ~table:(Table.name tbl) ~attr:"Title"
          ~indices:(View.row_indices view)
      in
      Alcotest.(check bool)
        (how ^ ": cached under the row-index key")
        true
        (Matching.Profile_cache.profile cache key (fun () -> Alcotest.fail "key missed") == p))
    [
      ("of_view", fun cache -> Matching.Column.of_view ~cache view);
      ("view_columns", fun cache -> Matching.Column.view_columns ~cache view);
    ]

let () =
  Alcotest.run "perf_kernel"
    [
      ( "partitions",
        [
          Alcotest.test_case "composed view artefacts" `Quick test_partition_compose;
          Alcotest.test_case "mixed numeric In" `Quick test_partition_compose_mixed_numeric;
          Alcotest.test_case "absent grams, empty targets, empty sets" `Quick
            test_view_scores_edges;
          Alcotest.test_case "scratch reuse across families" `Quick test_compose_scratch_reuse;
          Alcotest.test_case "view column key" `Quick test_view_column_key;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "kernel x jobs identical" `Slow test_end_to_end_identical;
          Alcotest.test_case "store interner-independent" `Slow test_store_interner_independent;
        ] );
      ( "wide",
        [
          Alcotest.test_case "wide target: jobs x kernel x filter identical" `Quick
            test_wide_target_identical;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_compose;
          QCheck_alcotest.to_alcotest qcheck_view_scores;
        ] );
    ]
