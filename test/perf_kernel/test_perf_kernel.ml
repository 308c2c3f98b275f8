(* Differential oracle for the interned scoring kernel (DESIGN.md,
   "Scoring kernel").  Every fast path — int merge joins over interned
   profiles, batch scoring through the gram inverted index, top-k
   retrieval with upper-bound pruning, view profiles composed from
   condition-attribute partitions — must produce results *bit-identical*
   to the legacy string path: same grams, same counts, same float bits.
   Floats are compared via their IEEE bits (or %h fingerprints), so any
   accumulation-order drift fails loudly, not just drift above an
   epsilon. *)

open Relational

let check_bits what a b =
  Alcotest.(check string) what (Printf.sprintf "%h" a) (Printf.sprintf "%h" b)

(* A copy of [p] through the serialisation surface: same counts, no
   interned view, so scoring it takes the pure string path. *)
let fresh p = Textsim.Profile.of_counts ~q:(Textsim.Profile.q p) (Textsim.Profile.counts p)

let grams_of p = Array.to_list (Textsim.Profile.counts p) |> List.map fst

let corpus =
  [
    [ "Systems of Highway Engineering"; "Aerodynamics for Engineers"; "The Art of OCaml" ];
    [ "Greatest Hits Vol. 2"; "Live at the Fillmore"; "Symphony No. 9 in D minor" ];
    [ "aaa"; "aab"; "aba" ];
    [ "" ];
    [];
    [ "xyzzy" ];
  ]

(* --- interned merge joins ---------------------------------------------- *)

let test_interned_pairwise () =
  let profiles = List.map Textsim.Profile.of_strings corpus in
  List.iteri
    (fun i p1 ->
      List.iteri
        (fun j p2 ->
          let tag op = Printf.sprintf "%s %d~%d" op i j in
          let oracle_cos = Textsim.Profile.cosine (fresh p1) (fresh p2) in
          let oracle_jac = Textsim.Profile.jaccard (fresh p1) (fresh p2) in
          (* both sides interned against a shared dictionary *)
          let a = fresh p1 and b = fresh p2 in
          let dict = Textsim.Gram_dict.of_grams (grams_of a @ grams_of b) in
          Textsim.Profile.intern dict a;
          Textsim.Profile.intern dict b;
          check_bits (tag "cosine interned") oracle_cos (Textsim.Profile.cosine a b);
          check_bits (tag "jaccard interned") oracle_jac (Textsim.Profile.jaccard a b);
          (* one-sided: only [d] is interned (and complete — the dict is
             its own vocabulary); the dispatch interns [c] on the fly *)
          let c = fresh p1 and d = fresh p2 in
          let dict2 = Textsim.Gram_dict.of_grams (grams_of d) in
          Textsim.Profile.intern dict2 d;
          check_bits (tag "cosine one-sided") oracle_cos (Textsim.Profile.cosine c d);
          check_bits (tag "jaccard one-sided") oracle_jac (Textsim.Profile.jaccard c d))
        profiles)
    (List.map Textsim.Profile.of_strings corpus)

(* Two profiles interned against different dictionaries that are both
   incomplete for the other's grams must fall back to the string path,
   not silently drop shared out-of-vocabulary grams. *)
let test_incomplete_fallback () =
  let p1 = Textsim.Profile.of_strings [ "shared gram soup"; "alpha" ] in
  let p2 = Textsim.Profile.of_strings [ "shared gram soup"; "omega" ] in
  let oracle = Textsim.Profile.cosine (fresh p1) (fresh p2) in
  let a = fresh p1 and b = fresh p2 in
  (* dictionary built from an unrelated profile: both sides incomplete *)
  let dict = Textsim.Gram_dict.of_grams (grams_of (Textsim.Profile.of_strings [ "zzz" ])) in
  Textsim.Profile.intern dict a;
  Textsim.Profile.intern dict b;
  check_bits "incomplete dictionaries fall back" oracle (Textsim.Profile.cosine a b);
  Alcotest.(check bool) "oracle is non-trivial" true (oracle > 0.0)

(* --- inverted index ---------------------------------------------------- *)

let index_fixture () =
  let targets = List.map Textsim.Profile.of_strings corpus |> Array.of_list in
  let index = Textsim.Gram_index.build targets in
  let candidates =
    List.map Textsim.Profile.of_strings
      ([ "Highway Engineers of OCaml" ] :: [ "Qqq Www" ] :: [ "" ] :: corpus)
  in
  (targets, index, candidates)

let test_index_scores () =
  let targets, index, candidates = index_fixture () in
  List.iteri
    (fun ci cand ->
      let scores, touched = Textsim.Gram_index.scores index (fresh cand) in
      Alcotest.(check int) "one score per target" (Array.length targets) (Array.length scores);
      Alcotest.(check bool) "touched within range" true
        (touched >= 0 && touched <= Array.length targets);
      Array.iteri
        (fun s tgt ->
          check_bits
            (Printf.sprintf "cand %d vs target %d" ci s)
            (Textsim.Profile.cosine (fresh cand) (fresh tgt))
            scores.(s))
        targets)
    candidates;
  (* a candidate sharing no gram is never accumulated: all zeros, all
     pruned *)
  let scores, touched = Textsim.Gram_index.scores index (Textsim.Profile.of_strings [ "QQQ" ]) in
  Alcotest.(check int) "disjoint candidate touches nothing" 0 touched;
  Array.iter (fun s -> check_bits "disjoint scores are exact zeros" 0.0 s) scores

let test_top_k_equals_exhaustive () =
  let _, index, candidates = index_fixture () in
  List.iteri
    (fun ci cand ->
      let scores, _ = Textsim.Gram_index.scores index cand in
      List.iter
        (fun (k, tau) ->
          let oracle =
            Array.to_list (Array.mapi (fun i s -> (i, s)) scores)
            |> List.filter (fun (_, s) -> s >= tau)
            |> List.sort (fun (i, a) (j, b) ->
                   let c = Float.compare b a in
                   if c <> 0 then c else Int.compare i j)
            |> List.filteri (fun i _ -> i < k)
          in
          let got, stats = Textsim.Gram_index.top_k index cand ~k ~tau in
          Alcotest.(check int)
            (Printf.sprintf "cand %d k=%d tau=%.2f: size" ci k tau)
            (List.length oracle) (List.length got);
          List.iter2
            (fun (i, s) (i', s') ->
              Alcotest.(check int) "slot" i i';
              check_bits "score" s s')
            oracle got;
          Alcotest.(check bool) "stats account for every target"
            true
            (stats.Textsim.Gram_index.scored + stats.Textsim.Gram_index.pruned
            = Textsim.Gram_index.length index))
        [ (1, 0.0); (3, 0.0); (100, 0.0); (3, 0.2); (3, 0.99); (0, 0.0) ])
    candidates

(* --- partitioned view profiles ----------------------------------------- *)

let retail_table () =
  let params = { Workload.Retail.default_params with rows = 150; target_rows = 60 } in
  Database.table (Workload.Retail.source params) Workload.Retail.source_table_name

let columns_agree what legacy composed =
  Alcotest.(check bool)
    (what ^ ": profile counts identical")
    true
    (Textsim.Profile.counts (Matching.Column.profile legacy)
    = Textsim.Profile.counts (Matching.Column.profile composed));
  let probe = Textsim.Profile.of_strings [ "Probe of Engineering Hits 9" ] in
  check_bits
    (what ^ ": cosine vs probe bit-identical")
    (Textsim.Profile.cosine (fresh (Matching.Column.profile legacy)) probe)
    (Textsim.Profile.cosine (fresh (Matching.Column.profile composed)) probe);
  Alcotest.(check (list string))
    (what ^ ": distinct identical")
    (Matching.Column.distinct_strings legacy)
    (Matching.Column.distinct_strings composed);
  Alcotest.(check (list string))
    (what ^ ": words identical")
    (Matching.Column.words legacy)
    (Matching.Column.words composed)

let test_partition_compose () =
  let tbl = retail_table () in
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
  let composed_cache = Matching.Profile_cache.create () in
  Matching.Profile_cache.set_partitioning composed_cache true;
  let legacy_cache = Matching.Profile_cache.create () in
  List.iter
    (fun family ->
      List.iter
        (fun view ->
          List.iter
            (fun attr ->
              columns_agree
                (Printf.sprintf "%s / %s" (View.name view) attr)
                (Matching.Column.of_view ~cache:legacy_cache view attr)
                (Matching.Column.of_view ~cache:composed_cache view attr))
            [ "Title"; "Creator"; "Price"; "ItemID" ])
        family.View.views)
    families

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
  let composed_cache = Matching.Profile_cache.create () in
  Matching.Profile_cache.set_partitioning composed_cache true;
  let legacy_cache = Matching.Profile_cache.create () in
  Alcotest.(check int) "view selects the Int 1 rows" 2 (View.row_count view);
  columns_agree "mixed numeric In"
    (Matching.Column.of_view ~cache:legacy_cache view "txt")
    (Matching.Column.of_view ~cache:composed_cache view "txt")

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

(* Stored artefacts serialise by gram string, never by interner id, so a
   store written by a kernel run warms a legacy run (and vice versa)
   with byte-identical results and zero recomputation. *)
let test_store_interner_independent () =
  in_temp_dir @@ fun dir ->
  let cold_store = Store.open_dir dir in
  let cold = retail_run ~store:cold_store ~kernel:true ~jobs:1 ~seed:3 () in
  Store.flush cold_store;
  List.iter
    (fun kernel ->
      let warm_store = Store.open_dir dir in
      let warm = retail_run ~store:warm_store ~kernel ~jobs:1 ~seed:3 () in
      Alcotest.(check string)
        (Printf.sprintf "warm kernel=%b identical to cold" kernel)
        (fingerprint cold) (fingerprint warm);
      Alcotest.(check int)
        (Printf.sprintf "warm kernel=%b recomputes nothing" kernel)
        0 warm.Ctxmatch.Context_match.profile_builds)
    [ true; false ]

(* --- model-level top-k ------------------------------------------------- *)

let test_model_top_k () =
  let params = { Workload.Retail.default_params with rows = 120; target_rows = 60 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let pruned = Matching.Standard_match.build ~kernel:true ~source ~target () in
  let exhaustive = Matching.Standard_match.build ~kernel:false ~source ~target () in
  Alcotest.(check bool) "kernel model holds an index" true
    (Matching.Standard_match.kernel_enabled pruned);
  Alcotest.(check bool) "legacy model holds none" false
    (Matching.Standard_match.kernel_enabled exhaustive);
  let fp l =
    String.concat ";" (List.map (fun ((t, a), s) -> Printf.sprintf "%s.%s=%h" t a s) l)
  in
  let src_tbl = Database.table source Workload.Retail.source_table_name in
  List.iter
    (fun src_attr ->
      List.iter
        (fun (k, tau) ->
          Alcotest.(check string)
            (Printf.sprintf "top-%d tau=%.2f of %s pruned = exhaustive" k tau src_attr)
            (fp
               (Matching.Standard_match.top_qgram_matches exhaustive
                  ~src_table:Workload.Retail.source_table_name ~src_attr ~k ~tau))
            (fp
               (Matching.Standard_match.top_qgram_matches pruned
                  ~src_table:Workload.Retail.source_table_name ~src_attr ~k ~tau)))
        [ (1, 0.0); (3, 0.0); (50, 0.0); (3, 0.3); (3, 0.95) ])
    (Schema.attribute_names (Table.schema src_tbl))

(* --- sharded TAAT ------------------------------------------------------ *)

(* Enough synthetic target columns that sharding splits the slot space
   into several block-aligned ranges.  Sequential and pool-sharded
   accumulation must agree bit for bit: each shard is a contiguous whole
   number of blocks filled independently and the merge is concatenation,
   so there is no accumulation-order drift for the comparison to
   forgive. *)
let synthetic_kernel n =
  let profile i =
    Textsim.Profile.of_strings
      [
        Printf.sprintf "target %d of the synthetic corpus" i;
        Printf.sprintf "column %d %s" (i mod 17) (String.make ((i mod 5) + 1) 'x');
      ]
  in
  Matching.Score_kernel.build
    (Array.init n (fun i -> (("t", Printf.sprintf "a%d" i), profile i)))

let test_sharded_bit_identity () =
  let kern = synthetic_kernel 600 in
  let fp_scores a =
    String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") a))
  in
  let fp_topk l =
    String.concat ";" (List.map (fun ((t, a), s) -> Printf.sprintf "%s.%s=%h" t a s) l)
  in
  let candidates =
    List.map Textsim.Profile.of_strings
      [
        [ "target 42 of the synthetic corpus" ];
        [ "column 3 xxxx"; "column 11 x" ];
        [ "no overlap whatsoever ZZZZ" ];
        [];
      ]
  in
  List.iter
    (fun jobs ->
      let pool = Runtime.Pool.get ~jobs in
      List.iteri
        (fun ci cand ->
          Alcotest.(check string)
            (Printf.sprintf "cand %d jobs=%d: sharded scores = sequential" ci jobs)
            (fp_scores (Matching.Score_kernel.scores kern cand))
            (fp_scores (Matching.Score_kernel.scores ~pool ~shard_min:1 kern cand));
          List.iter
            (fun (k, tau) ->
              Alcotest.(check string)
                (Printf.sprintf "cand %d jobs=%d k=%d tau=%.2f: sharded top-k = sequential" ci
                   jobs k tau)
                (fp_topk (Matching.Score_kernel.top_k kern cand ~k ~tau))
                (fp_topk (Matching.Score_kernel.top_k ~pool ~shard_min:1 kern cand ~k ~tau)))
            [ (1, 0.0); (10, 0.0); (650, 0.0); (10, 0.05); (10, 0.9) ])
        candidates)
    [ 2; 4 ]

(* --- block-max boundaries ---------------------------------------------- *)

(* 13 targets: a ragged final block at every block size that does not
   divide 13, single-posting blocks at block size 1, and postings that
   straddle block edges at 2 and 7.  The block size must never change a
   returned score — only which blocks the pruning pass may skip. *)
let block_targets =
  Array.init 13 (fun i ->
      Textsim.Profile.of_strings
        [
          Printf.sprintf "row %d common payload" i;
          String.concat " " (List.init ((i mod 4) + 1) (fun _ -> "dup dup dup"));
        ])

let block_candidates =
  List.map Textsim.Profile.of_strings
    [ [ "row 7 common payload" ]; [ "dup dup" ]; [ "unrelated" ] ]

let test_block_sizes_identical () =
  let reference = Textsim.Gram_index.build block_targets in
  List.iter
    (fun bs ->
      let index = Textsim.Gram_index.build ~block_size:bs block_targets in
      Alcotest.(check int)
        (Printf.sprintf "bs=%d block count" bs)
        ((13 + bs - 1) / bs)
        (Textsim.Gram_index.block_count index);
      List.iteri
        (fun ci cand ->
          let oracle, _ = Textsim.Gram_index.scores reference cand in
          let got, _ = Textsim.Gram_index.scores index cand in
          Array.iteri
            (fun i o -> check_bits (Printf.sprintf "bs=%d cand %d slot %d" bs ci i) o got.(i))
            oracle;
          (* at every tau, a pruned slice agrees with exhaustive scoring
             on every slot at or above the threshold — on either side,
             so a bound that wrongly skipped a survivor fails loudly *)
          List.iter
            (fun tau ->
              let sliced, stats =
                Textsim.Gram_index.scores_range index cand ~tau ~lo:0 ~hi:13
              in
              Alcotest.(check int) "slice covers the range" 13 (Array.length sliced);
              Alcotest.(check int) "every block accounted for"
                (Textsim.Gram_index.block_count index)
                stats.Textsim.Gram_index.r_blocks;
              Array.iteri
                (fun i s ->
                  if s >= tau || oracle.(i) >= tau then
                    check_bits
                      (Printf.sprintf "bs=%d cand %d tau=%.2f slot %d" bs ci tau i)
                      oracle.(i) s)
                sliced)
            [ 0.0; 0.05; 0.3; 0.99 ];
          (* a proper sub-range starting on an interior block boundary *)
          if bs < 13 then
            let sliced, _ = Textsim.Gram_index.scores_range index cand ~tau:0.0 ~lo:bs ~hi:13 in
            Array.iteri
              (fun i s ->
                check_bits (Printf.sprintf "bs=%d cand %d offset slot %d" bs ci i) oracle.(bs + i) s)
              sliced)
        block_candidates)
    [ 1; 2; 5; 7; 64 ]

(* Patching a slot down to the empty profile empties every posting row
   of its private grams; those rows must stay score-neutral and the
   patched index bit-identical to a cold build over the mutated targets
   — at every block size, since the patch path recomputes the segment
   maxima and per-block norms from scratch. *)
let test_patch_emptied_slots () =
  List.iter
    (fun bs ->
      let index = Textsim.Gram_index.build ~block_size:bs block_targets in
      let empty = Textsim.Profile.of_strings [] in
      let replacement = Textsim.Profile.of_strings [ "row 3 common payload" ] in
      let patches = [ (4, empty); (9, replacement) ] in
      match Textsim.Gram_index.patch index patches with
      | None -> Alcotest.fail (Printf.sprintf "bs=%d: patch unexpectedly fell back" bs)
      | Some patched ->
        let mutated = Array.copy block_targets in
        mutated.(4) <- empty;
        mutated.(9) <- replacement;
        let cold = Textsim.Gram_index.build ~block_size:bs mutated in
        List.iteri
          (fun ci cand ->
            check_bits
              (Printf.sprintf "bs=%d cand %d upper bound" bs ci)
              (Textsim.Gram_index.cosine_upper_bound cold cand)
              (Textsim.Gram_index.cosine_upper_bound patched cand);
            let want, _ = Textsim.Gram_index.scores cold cand in
            let got, _ = Textsim.Gram_index.scores patched cand in
            Array.iteri
              (fun i w ->
                check_bits (Printf.sprintf "bs=%d cand %d slot %d" bs ci i) w got.(i))
              want;
            List.iter
              (fun (k, tau) ->
                let fp (l, _) =
                  String.concat ";" (List.map (fun (i, s) -> Printf.sprintf "%d=%h" i s) l)
                in
                Alcotest.(check string)
                  (Printf.sprintf "bs=%d cand %d k=%d tau=%.2f top-k" bs ci k tau)
                  (fp (Textsim.Gram_index.top_k cold cand ~k ~tau))
                  (fp (Textsim.Gram_index.top_k patched cand ~k ~tau)))
              [ (3, 0.0); (3, 0.2); (20, 0.0) ])
          block_candidates)
    [ 1; 2; 7; 64 ]

(* --- upper-bound soundness under skew ----------------------------------- *)

(* Adversarial frequency skew: one target is a single hugely repeated
   gram (posting frequency ~1), another has a tiny norm, and the rest sit
   in between — the regime where a max-frequency x min-norm bound is at
   its coarsest.  Sound means >= every true cosine; the differential
   top-k check then confirms coarse never became wrong. *)
let test_bound_soundness () =
  let targets =
    [|
      Textsim.Profile.of_strings (List.init 40 (fun _ -> "aaaaaaaaaa"));
      Textsim.Profile.of_strings [ "zzzz" ];
      Textsim.Profile.of_strings [ "aaaa zzzz mixed" ];
      Textsim.Profile.of_strings [ "unrelated words here" ];
      Textsim.Profile.of_strings [ "aaa zzz aaa zzz" ];
    |]
  in
  let candidates =
    List.map Textsim.Profile.of_strings
      [
        [ "aaaa" ];
        [ "zzzz" ];
        (List.init 40 (fun _ -> "aaaaaaaaaa"));
        [ "aaaa zzzz mixed" ];
        [ "completely disjoint" ];
      ]
  in
  List.iter
    (fun bs ->
      let index = Textsim.Gram_index.build ~block_size:bs targets in
      List.iteri
        (fun ci cand ->
          let bound = Textsim.Gram_index.cosine_upper_bound index cand in
          let scores, _ = Textsim.Gram_index.scores index cand in
          Array.iteri
            (fun i s ->
              Alcotest.(check bool)
                (Printf.sprintf "bs=%d cand %d target %d: bound %.17g >= cosine %.17g" bs ci i
                   bound s)
                true (bound >= s))
            scores;
          List.iter
            (fun (k, tau) ->
              let oracle =
                Array.to_list (Array.mapi (fun i s -> (i, s)) scores)
                |> List.filter (fun (_, s) -> s >= tau)
                |> List.sort (fun (i, a) (j, b) ->
                       let c = Float.compare b a in
                       if c <> 0 then c else Int.compare i j)
                |> List.filteri (fun i _ -> i < k)
              in
              let got, _ = Textsim.Gram_index.top_k index cand ~k ~tau in
              Alcotest.(check int)
                (Printf.sprintf "bs=%d cand %d k=%d tau=%.2f size" bs ci k tau)
                (List.length oracle) (List.length got);
              List.iter2
                (fun (i, s) (i', s') ->
                  Alcotest.(check int) "slot" i i';
                  check_bits "score" s s')
                oracle got)
            [ (1, 0.0); (5, 0.3); (5, 0.7); (5, 0.95) ])
        candidates)
    [ 1; 2; 64 ]

(* --- qcheck properties -------------------------------------------------- *)

(* Small alphabet so grams collide heavily across random profiles. *)
let words_gen =
  QCheck.Gen.(
    list_size (0 -- 4) (string_size (1 -- 8) ~gen:(char_range 'a' 'e'))
    |> map (String.concat " "))

let qcheck_topk =
  let gen =
    QCheck.Gen.(
      quad
        (list_size (1 -- 30) (small_list words_gen))
        (small_list words_gen)
        (pair (1 -- 9) (0 -- 40))
        (0 -- 10))
  in
  QCheck.Test.make ~name:"top_k = exhaustive filter/sort/take" ~count:200 (QCheck.make gen)
    (fun (targets, cand, (bs, kk), tau10) ->
      let tau = float_of_int tau10 /. 10.0 in
      let index =
        Textsim.Gram_index.build ~block_size:bs
          (Array.of_list (List.map Textsim.Profile.of_strings targets))
      in
      let cand = Textsim.Profile.of_strings cand in
      let scores, _ = Textsim.Gram_index.scores index cand in
      let oracle =
        Array.to_list (Array.mapi (fun i s -> (i, s)) scores)
        |> List.filter (fun (_, s) -> s >= tau)
        |> List.sort (fun (i, a) (j, b) ->
               let c = Float.compare b a in
               if c <> 0 then c else Int.compare i j)
        |> List.filteri (fun i _ -> i < kk)
      in
      let got, _ = Textsim.Gram_index.top_k index cand ~k:kk ~tau in
      oracle = got)

(* CSR family composition round-trip: for random partitioned tables and
   random slot subsets, the arena-composed profile must carry the exact
   count bag of the boxed [Profile.sum] of the group profiles, and score
   bit-identically to a raw re-tokenisation of the selected rows. *)
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
      let sub_strings indices =
        let trows = Table.rows tbl in
        Array.to_list indices
        |> List.filter_map (fun i ->
               match trows.(i).(1) with
               | Value.String s -> Some s
               | v -> if Value.is_null v then None else Some (Value.to_string v))
      in
      let cache = Matching.Profile_cache.create () in
      Matching.Profile_cache.set_partitioning cache true;
      let fam =
        Matching.Profile_cache.family cache ~table:tbl ~cond_attr:"k" ~attr:"txt"
          ~profile_of:(fun indices -> Textsim.Profile.of_strings (sub_strings indices))
      in
      let n = Array.length fam.Matching.Profile_cache.fam_profiles in
      let slots = List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init n Fun.id) in
      match slots with
      | [] -> true
      | slots ->
        let part = Matching.Profile_cache.partition cache ~table:tbl ~cond_attr:"k" in
        let composed = Matching.Profile_cache.compose_profile fam slots in
        let boxed =
          Textsim.Profile.sum
            (List.map (fun s -> fam.Matching.Profile_cache.fam_profiles.(s)) slots)
        in
        let raw =
          Textsim.Profile.of_strings
            (List.concat_map
               (fun s -> sub_strings part.Matching.Profile_cache.part_indices.(s))
               slots)
        in
        let probe = Textsim.Profile.of_strings [ "abc ea bdbd" ] in
        Textsim.Profile.counts composed = Textsim.Profile.counts boxed
        && Textsim.Profile.counts composed = Textsim.Profile.counts raw
        && Printf.sprintf "%h" (Textsim.Profile.norm composed)
           = Printf.sprintf "%h" (Textsim.Profile.norm raw)
        && Printf.sprintf "%h" (Textsim.Profile.cosine (fresh composed) probe)
           = Printf.sprintf "%h" (Textsim.Profile.cosine (fresh raw) probe))

(* --- view composition = row re-scan -------------------------------------- *)

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

let compose_case_gen =
  QCheck.Gen.(
    let txt =
      frequency
        [
          (1, return Value.Null);
          (3, map (fun s -> Value.String s) (oneofa txt_pool));
          (2, map (fun s -> Value.String s) words_gen);
        ]
    in
    let n = frequency [ (1, return Value.Null); (4, map (fun i -> Value.Int i) (0 -- 5)) ] in
    triple
      (list_size (0 -- 24) (triple (oneofa k_pool) txt n))
      (list_size (1 -- 6) (list_size (1 -- 4) (oneofa cond_pool)))
      bool)

let same_profile a b =
  Textsim.Profile.counts a = Textsim.Profile.counts b
  && Textsim.Profile.total a = Textsim.Profile.total b
  && Printf.sprintf "%h" (Textsim.Profile.norm a) = Printf.sprintf "%h" (Textsim.Profile.norm b)

(* Every view of a random table, composed through one shared cache
   (families warmed up front or built on first touch), against a
   cache-less row re-scan of the same view: profile counts, total and
   norm, distinct and word sets of the text attribute, distinct set of
   the int attribute. *)
let qcheck_view_compose =
  QCheck.Test.make ~name:"composed view artefacts = row re-scan" ~count:200
    (QCheck.make compose_case_gen)
    (fun (rows, conds, warm) ->
      let schema =
        Schema.make "comp" [ Attribute.float "k"; Attribute.string "txt"; Attribute.int "n" ]
      in
      let tbl = Table.make schema (List.map (fun (k, t, n) -> [| k; t; n |]) rows) in
      let cache = Matching.Profile_cache.create () in
      Matching.Profile_cache.set_partitioning cache true;
      if warm then Matching.Column.warm_families cache tbl;
      List.for_all
        (fun vs ->
          let cond = match vs with [ v ] -> Condition.Eq ("k", v) | vs -> Condition.In ("k", vs) in
          let view = View.make tbl cond in
          let composed = Matching.Column.view_columns ~cache view in
          let rescan = Matching.Column.of_view view in
          same_profile
            (Matching.Column.profile (composed "txt"))
            (Matching.Column.profile (rescan "txt"))
          && Matching.Column.distinct_strings (composed "txt")
             = Matching.Column.distinct_strings (rescan "txt")
          && Matching.Column.words (composed "txt") = Matching.Column.words (rescan "txt")
          && Matching.Column.distinct_strings (composed "n")
             = Matching.Column.distinct_strings (rescan "n"))
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
  let sub_strings tbl indices =
    Array.to_list indices |> List.map (fun i -> Value.to_string (Table.rows tbl).(i).(1))
  in
  let fam tbl =
    Matching.Profile_cache.family cache ~table:tbl ~cond_attr:"k" ~attr:"txt"
      ~profile_of:(fun indices -> Textsim.Profile.of_strings (sub_strings tbl indices))
  in
  let sets tbl =
    Matching.Profile_cache.set_family cache ~table:tbl ~cond_attr:"k" ~attr:"txt"
      ~set_of:(fun indices ->
        List.concat_map Textsim.Tokenize.words (sub_strings tbl indices)
        |> List.sort_uniq String.compare)
  in
  let on_fresh_domain f = Domain.join (Domain.spawn f) in
  let check (tbl, slots) =
    let what =
      Printf.sprintf "%s %s" (Table.name tbl) (String.concat "," (List.map string_of_int slots))
    in
    let f = fam tbl and s = sets tbl in
    let p = Matching.Profile_cache.compose_profile f slots in
    let p' = on_fresh_domain (fun () -> Matching.Profile_cache.compose_profile f slots) in
    Alcotest.(check bool) (what ^ ": profile = fresh compose") true (same_profile p p');
    Alcotest.(check (list string))
      (what ^ ": set = fresh compose")
      (on_fresh_domain (fun () -> Matching.Profile_cache.compose_set s slots))
      (Matching.Profile_cache.compose_set s slots)
  in
  Alcotest.(check bool) "large vocabulary dwarfs the small one" true
    (Textsim.Gram_dict.size (fam large).Matching.Profile_cache.fam_dict
    > 10 * Textsim.Gram_dict.size (fam small).Matching.Profile_cache.fam_dict);
  List.iter check [ (large, [ 0; 3; 7; 12; 29 ]); (small, [ 0; 1 ]); (large, [ 1; 3; 29 ]) ];
  (match Matching.Profile_cache.compose_profile (fam large) [ 0; 1; 999 ] with
  | _ -> Alcotest.fail "slot 999 does not exist"
  | exception Invalid_argument _ -> ());
  check (large, [ 0; 1; 2 ]);
  (match Matching.Profile_cache.compose_set (sets large) [ 4; 5; 999 ] with
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
      ( "interned",
        [
          Alcotest.test_case "pairwise bit-identity" `Quick test_interned_pairwise;
          Alcotest.test_case "incomplete fallback" `Quick test_incomplete_fallback;
        ] );
      ( "index",
        [
          Alcotest.test_case "batch scores bit-identical" `Quick test_index_scores;
          Alcotest.test_case "top-k = exhaustive" `Quick test_top_k_equals_exhaustive;
        ] );
      ( "partitions",
        [
          Alcotest.test_case "composed view artefacts" `Quick test_partition_compose;
          Alcotest.test_case "mixed numeric In" `Quick test_partition_compose_mixed_numeric;
          Alcotest.test_case "scratch reuse across families" `Quick test_compose_scratch_reuse;
          Alcotest.test_case "view column key" `Quick test_view_column_key;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "kernel x jobs identical" `Slow test_end_to_end_identical;
          Alcotest.test_case "store interner-independent" `Slow test_store_interner_independent;
        ] );
      ("top-k", [ Alcotest.test_case "model top-k pruned = exhaustive" `Quick test_model_top_k ]);
      ( "sharded",
        [ Alcotest.test_case "jobs 1 vs N bit-identity" `Quick test_sharded_bit_identity ] );
      ( "blocks",
        [
          Alcotest.test_case "block sizes score identically" `Quick test_block_sizes_identical;
          Alcotest.test_case "emptied-slot patch = cold rebuild" `Quick test_patch_emptied_slots;
        ] );
      ( "bounds",
        [ Alcotest.test_case "skewed-frequency bound soundness" `Quick test_bound_soundness ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_topk;
          QCheck_alcotest.to_alcotest qcheck_compose;
          QCheck_alcotest.to_alcotest qcheck_view_compose;
        ] );
    ]
