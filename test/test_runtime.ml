(* The parallel runtime: deterministic pool fan-out, the memo table,
   and the profile cache threaded through view scoring. *)
open Relational

(* --- Pool -------------------------------------------------------------- *)

let test_pool_matches_sequential () =
  List.iter
    (fun jobs ->
      let pool = Runtime.Pool.create ~jobs in
      List.iter
        (fun n ->
          let input = List.init n (fun i -> i) in
          let f x = (x * x) + 1 in
          Alcotest.(check (list int))
            (Printf.sprintf "map jobs=%d n=%d" jobs n)
            (List.map f input)
            (Runtime.Pool.map_list pool f input))
        [ 0; 1; 7; 100 ];
      Runtime.Pool.shutdown pool)
    [ 1; 2; 4 ]

let test_pool_mapi_and_concat () =
  let pool = Runtime.Pool.create ~jobs:4 in
  let input = List.init 50 (fun i -> Printf.sprintf "v%d" i) in
  Alcotest.(check (list string))
    "mapi passes the index"
    (List.mapi (fun i s -> Printf.sprintf "%d:%s" i s) input)
    (Runtime.Pool.mapi_list pool (fun i s -> Printf.sprintf "%d:%s" i s) input);
  let f x = [ x; x * 10 ] in
  let ints = List.init 31 (fun i -> i) in
  Alcotest.(check (list int))
    "concat_map preserves order"
    (List.concat_map f ints)
    (Runtime.Pool.concat_map_list pool f ints);
  Runtime.Pool.shutdown pool

let test_pool_deterministic_across_runs () =
  let pool = Runtime.Pool.create ~jobs:4 in
  let input = List.init 500 (fun i -> i) in
  let f x = Printf.sprintf "%d-%d" x (x mod 7) in
  let first = Runtime.Pool.map_list pool f input in
  for _ = 1 to 3 do
    Alcotest.(check (list string)) "same output every run" first
      (Runtime.Pool.map_list pool f input)
  done;
  Runtime.Pool.shutdown pool

let test_pool_propagates_exception () =
  let pool = Runtime.Pool.create ~jobs:2 in
  let blew_up =
    try
      ignore
        (Runtime.Pool.map_list pool
           (fun x -> if x = 57 then failwith "boom" else x)
           (List.init 100 (fun i -> i)));
      false
    with Failure msg -> msg = "boom"
  in
  Alcotest.(check bool) "exception re-raised" true blew_up;
  (* the batch drained: the pool is still usable *)
  Alcotest.(check (list int)) "pool survives" [ 2; 4 ]
    (Runtime.Pool.map_list pool (fun x -> 2 * x) [ 1; 2 ]);
  Runtime.Pool.shutdown pool

let test_pool_get_caches_and_resizes () =
  let p2 = Runtime.Pool.get ~jobs:2 in
  Alcotest.(check bool) "same pool returned" true (p2 == Runtime.Pool.get ~jobs:2);
  Alcotest.(check int) "jobs recorded" 2 (Runtime.Pool.jobs p2);
  let p3 = Runtime.Pool.get ~jobs:3 in
  Alcotest.(check int) "resized" 3 (Runtime.Pool.jobs p3);
  Alcotest.(check (list int)) "resized pool works" [ 1; 2; 3 ]
    (Runtime.Pool.map_list p3 (fun x -> x) [ 1; 2; 3 ])

(* OCaml 5.1 allows at most 128 domains per process.  A pool asking for
   more must fail without keeping the workers it did spawn, or every
   later multi-domain pool fails to spawn as well. *)
let test_pool_oversized_jobs () =
  (match Runtime.Pool.get ~jobs:200 with
  | _ -> Alcotest.fail "200 jobs is past the domain limit"
  | exception Failure _ -> ());
  let pool = Runtime.Pool.get ~jobs:2 in
  Alcotest.(check (list int)) "a later pool works" [ 2; 4; 6 ]
    (Runtime.Pool.map_list pool (fun x -> 2 * x) [ 1; 2; 3 ])

(* --- Memo -------------------------------------------------------------- *)

let test_memo_hit_miss_accounting () =
  let memo = Runtime.Memo.create () in
  let calls = ref 0 in
  let compute k () =
    incr calls;
    String.length k
  in
  Alcotest.(check int) "computed" 3 (Runtime.Memo.find_or_add memo "abc" (compute "abc"));
  Alcotest.(check int) "cached" 3 (Runtime.Memo.find_or_add memo "abc" (compute "abc"));
  Alcotest.(check int) "one compute" 1 !calls;
  Alcotest.(check int) "one hit" 1 (Runtime.Memo.hits memo);
  Alcotest.(check int) "one miss" 1 (Runtime.Memo.misses memo);
  Alcotest.(check (float 1e-9)) "hit rate" 0.5 (Runtime.Memo.hit_rate memo);
  Runtime.Memo.clear memo;
  Alcotest.(check int) "cleared" 0 (Runtime.Memo.length memo);
  Alcotest.(check int) "counters reset" 0 (Runtime.Memo.hits memo + Runtime.Memo.misses memo)

let test_memo_returns_first_insertion () =
  let memo = Runtime.Memo.create () in
  let a = Runtime.Memo.find_or_add memo 1 (fun () -> ref 10) in
  let b = Runtime.Memo.find_or_add memo 1 (fun () -> ref 99) in
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check int) "first value kept" 10 !a

let test_memo_under_concurrency () =
  let memo = Runtime.Memo.create () in
  let pool = Runtime.Pool.create ~jobs:4 in
  let results =
    Runtime.Pool.map_list pool
      (fun i -> Runtime.Memo.find_or_add memo (i mod 10) (fun () -> (i mod 10) * 100))
      (List.init 200 (fun i -> i))
  in
  Runtime.Pool.shutdown pool;
  Alcotest.(check (list int))
    "every lookup consistent"
    (List.init 200 (fun i -> i mod 10 * 100))
    results;
  Alcotest.(check int) "all lookups accounted" 200
    (Runtime.Memo.hits memo + Runtime.Memo.misses memo);
  Alcotest.(check int) "each key computed once" 10 (Runtime.Memo.misses memo);
  Alcotest.(check int) "only ten keys" 10 (Runtime.Memo.length memo)

(* [domains] domains released together, each running [f]; their results
   in spawn order. *)
let race ~domains f =
  let ready = Atomic.make 0 in
  List.init domains (fun _ ->
      Domain.spawn (fun () ->
          Atomic.incr ready;
          while Atomic.get ready < domains do
            Domain.cpu_relax ()
          done;
          f ()))
  |> List.map Domain.join

let test_memo_computes_once () =
  let memo = Runtime.Memo.create () in
  let computed = Atomic.make 0 in
  let results =
    race ~domains:4 (fun () ->
        Runtime.Memo.find_or_add memo "k" (fun () ->
            Atomic.incr computed;
            Unix.sleepf 0.02;
            ref 0))
  in
  Alcotest.(check int) "computed once" 1 (Atomic.get computed);
  Alcotest.(check bool) "every caller gets the same physical value" true
    (List.for_all (fun r -> r == List.hd results) results);
  Alcotest.(check int) "one miss" 1 (Runtime.Memo.misses memo);
  Alcotest.(check int) "the waiters hit" 3 (Runtime.Memo.hits memo)

(* A failing computation stores nothing and is shared with no one: each
   waiter retries, so every caller computes (and fails) exactly once. *)
let test_memo_failure_retried () =
  let memo = Runtime.Memo.create () in
  let computed = Atomic.make 0 in
  let raised =
    race ~domains:4 (fun () ->
        match
          Runtime.Memo.find_or_add memo "k" (fun () ->
              Atomic.incr computed;
              Unix.sleepf 0.01;
              failwith "boom")
        with
        | _ -> false
        | exception Failure _ -> true)
  in
  Alcotest.(check (list bool)) "every caller raised" [ true; true; true; true ] raised;
  Alcotest.(check int) "each caller computed once" 4 (Atomic.get computed);
  Alcotest.(check int) "nothing stored" 0 (Runtime.Memo.length memo);
  Alcotest.(check int) "a later success is stored" 7
    (Runtime.Memo.find_or_add memo "k" (fun () -> 7));
  Alcotest.(check int) "and kept" 7 (Runtime.Memo.find_or_add memo "k" (fun () -> 8))

(* A keyed [Memo_lookup] fault dooms the same keys on every lookup,
   whichever domains race them, and a doomed key is never computed. *)
let test_memo_fault_fires_again () =
  let memo = Runtime.Memo.create () in
  let computed = Atomic.make 0 in
  let pass () =
    List.init 40 (fun k ->
        match
          Runtime.Memo.find_or_add memo k (fun () ->
              Atomic.incr computed;
              k)
        with
        | v -> Some v
        | exception Robust.Fault.Injected _ -> None)
  in
  Robust.Fault.with_armed [ { Robust.Fault.site = Robust.Fault.Memo_lookup; rate = 0.5; seed = 3 } ]
  @@ fun () ->
  let first = pass () in
  let stored = List.length (List.filter Option.is_some first) in
  Alcotest.(check bool) "some keys doomed, some not" true (stored > 0 && stored < 40);
  List.iter
    (fun again -> Alcotest.(check (list (option int))) "same keys fail again" first again)
    (race ~domains:4 pass);
  Alcotest.(check int) "only surviving keys computed, once each" stored (Atomic.get computed)

(* --- Profile cache ----------------------------------------------------- *)

(* [flag] and [dup] always agree, so conditions on either attribute can
   select the same row subset through different conditions. *)
let cache_table =
  Table.make
    (Schema.make "S"
       [ Attribute.string "flag"; Attribute.string "dup"; Attribute.string "x" ])
    (List.init 20 (fun i ->
         let side = if i mod 2 = 0 then "a" else "b" in
         [|
           Value.String side;
           Value.String side;
           Value.String (Printf.sprintf "title %d of side %s" i side);
         |]))

let test_cache_hit_on_identical_subset () =
  let cache = Matching.Profile_cache.create () in
  let va = View.make cache_table (Condition.Eq ("flag", Value.String "a")) in
  let vb = View.make cache_table (Condition.Eq ("dup", Value.String "a")) in
  let ca = Matching.Column.of_view ~cache va "x" in
  let cb = Matching.Column.of_view ~cache vb "x" in
  let pa = Matching.Column.profile ca in
  let pb = Matching.Column.profile cb in
  Alcotest.(check bool) "same subset shares one profile" true (pa == pb);
  Alcotest.(check int) "second lookup hit" 1 (Runtime.Memo.hits cache.profiles);
  Alcotest.(check int) "first lookup missed" 1 (Runtime.Memo.misses cache.profiles)

let test_cache_miss_on_different_subset () =
  let cache = Matching.Profile_cache.create () in
  let va = View.make cache_table (Condition.Eq ("flag", Value.String "a")) in
  let vb = View.make cache_table (Condition.Eq ("flag", Value.String "b")) in
  ignore (Matching.Column.profile (Matching.Column.of_view ~cache va "x"));
  ignore (Matching.Column.profile (Matching.Column.of_view ~cache vb "x"));
  Alcotest.(check int) "no hits" 0 (Runtime.Memo.hits cache.profiles);
  Alcotest.(check int) "two computes" 2 (Runtime.Memo.misses cache.profiles);
  Alcotest.(check bool) "distinct digests" true
    (Matching.Profile_cache.subset_digest (View.row_indices va)
    <> Matching.Profile_cache.subset_digest (View.row_indices vb))

(* Families look their partition and coded column up inside their own
   computation; four domains building every family of a table at once
   must finish, compute each artefact once, and agree with a sequential
   build. *)
let test_nested_lookups_jobs4 () =
  let pairs =
    List.concat_map
      (fun cond_attr -> List.map (fun attr -> (cond_attr, attr)) [ "flag"; "dup"; "x" ])
      [ "flag"; "dup" ]
  in
  let build cache (cond_attr, attr) =
    let fam = Matching.Profile_cache.family cache ~table:cache_table ~cond_attr ~attr in
    let words =
      Matching.Profile_cache.set_family cache ~table:cache_table ~cond_attr ~attr
        Matching.Profile_cache.Words
    in
    let counts = Matching.Profile_cache.compose_counts fam [ 0; 1 ] in
    (counts.Matching.Profile_cache.vc_ids, counts.vc_counts, Matching.Profile_cache.compose_ids words [ 1 ])
  in
  let expected = List.map (build (Matching.Profile_cache.create ())) pairs in
  let cache = Matching.Profile_cache.create () in
  let pool = Runtime.Pool.create ~jobs:4 in
  let got = Runtime.Pool.map_list pool (build cache) (pairs @ pairs @ pairs) in
  Runtime.Pool.shutdown pool;
  Alcotest.(check bool) "same families as a sequential build" true (got = expected @ expected @ expected);
  Alcotest.(check int) "each coded column built once" 3 (Runtime.Memo.misses cache.coded);
  Alcotest.(check int) "each partition built once" 2 (Runtime.Memo.misses cache.partitions);
  Alcotest.(check int) "each family built once" 6 (Runtime.Memo.misses cache.families)

(* Per-run accounting counts the same caches in hits, misses and
   builds: the source cache, and the target cache only when the run
   prepared the target itself. *)
let test_run_accounting () =
  let params = { Workload.Retail.default_params with rows = 120; target_rows = 60 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let infer = Ctxmatch.Context_match.infer_of `Naive ~target in
  let run ?prepared () = Ctxmatch.Context_match.run ?prepared ~infer ~source ~target () in
  let builds (r : Ctxmatch.Context_match.result) = r.profile_builds in
  let one_shot = run () in
  Alcotest.(check int) "one-shot, no store: builds = misses" one_shot.cache_misses
    (builds one_shot);
  let prepared = Matching.Standard_match.prepare_target ~target () in
  let first = run ~prepared () and second = run ~prepared () in
  List.iter
    (fun (what, (r : Ctxmatch.Context_match.result)) ->
      Alcotest.(check bool) (what ^ ": builds <= misses") true (builds r <= r.cache_misses))
    [ ("first prepared run", first); ("second prepared run", second) ];
  Alcotest.(check int) "a second run reports no target builds" (builds first) (builds second);
  Alcotest.(check bool) "target builds count once, in the run that prepared them" true
    (builds first < builds one_shot)

(* Source rows with embedded commas, quotes and newlines, round-tripped
   through the CSV layer: cached view scores must equal fresh ones on
   exactly the bytes users load. *)
let csv_roundtrip_db () =
  let header = [ "flag"; "dup"; "title" ] in
  let rows =
    List.init 16 (fun i ->
        let side = if i mod 2 = 0 then "a" else "b" in
        [
          side;
          side;
          Printf.sprintf "the \"secret, history\"\nvolume %d, side %s" i side;
        ])
  in
  let csv = Relational.Csv_io.to_string (header :: rows) in
  let table = Relational.Csv_io.table_of_csv ~name:"S" csv in
  (* round-trip once more to prove quoting is stable *)
  let table = Relational.Csv_io.table_of_csv ~name:"S" (Relational.Csv_io.table_to_csv table) in
  let tgt_csv =
    Relational.Csv_io.to_string
      ([ "booktitle" ]
      :: List.init 10 (fun i -> [ Printf.sprintf "a \"quoted, title\"\nnumber %d" i ]))
  in
  let target_table = Relational.Csv_io.table_of_csv ~name:"T" tgt_csv in
  (Database.make "src" [ table ], Database.make "tgt" [ target_table ])

let test_cached_view_score_equals_fresh () =
  let source, target = csv_roundtrip_db () in
  let table = Database.table source "S" in
  let score model view =
    Matching.Standard_match.score_view model view ~src_attr:"title" ~tgt_table:"T"
      ~tgt_attr:"booktitle"
  in
  (* warm model: scoring [va] populates the cache, [vb] (same subset,
     different condition) is answered from it.  Conjunctions, because a
     view selecting values of one attribute is scored in its partition
     family's id space and caches nothing per view. *)
  let warm = Matching.Standard_match.build ~source ~target () in
  let flag_a = Condition.Eq ("flag", Value.String "a")
  and dup_a = Condition.Eq ("dup", Value.String "a") in
  let va = View.make table (Condition.And (flag_a, dup_a)) in
  let vb = View.make table (Condition.And (dup_a, flag_a)) in
  let score_cold = score warm va in
  let hits_before = Matching.Profile_cache.hits (Matching.Standard_match.profile_cache warm) in
  let score_warm = score warm vb in
  let hits_after = Matching.Profile_cache.hits (Matching.Standard_match.profile_cache warm) in
  Alcotest.(check bool) "second view hit the cache" true (hits_after > hits_before);
  Alcotest.(check bool) "scores bit-identical" true (Float.equal score_cold score_warm);
  (* and a completely fresh model agrees *)
  let fresh = Matching.Standard_match.build ~source ~target () in
  Alcotest.(check bool) "fresh model agrees" true
    (Float.equal score_cold (score fresh (View.make table (Condition.Eq ("dup", Value.String "a")))));
  Alcotest.(check bool) "score is meaningful" true (score_cold > 0.0)

let suite =
  [
    Alcotest.test_case "pool = sequential map" `Quick test_pool_matches_sequential;
    Alcotest.test_case "pool mapi/concat" `Quick test_pool_mapi_and_concat;
    Alcotest.test_case "pool deterministic" `Quick test_pool_deterministic_across_runs;
    Alcotest.test_case "pool exception" `Quick test_pool_propagates_exception;
    Alcotest.test_case "pool get/resize" `Quick test_pool_get_caches_and_resizes;
    Alcotest.test_case "pool survives oversized jobs" `Quick test_pool_oversized_jobs;
    Alcotest.test_case "memo accounting" `Quick test_memo_hit_miss_accounting;
    Alcotest.test_case "memo first insertion wins" `Quick test_memo_returns_first_insertion;
    Alcotest.test_case "memo under concurrency" `Quick test_memo_under_concurrency;
    Alcotest.test_case "memo computes a raced key once" `Quick test_memo_computes_once;
    Alcotest.test_case "memo retries a failed computation" `Quick test_memo_failure_retried;
    Alcotest.test_case "memo fault fires again" `Quick test_memo_fault_fires_again;
    Alcotest.test_case "nested family lookups at jobs 4" `Quick test_nested_lookups_jobs4;
    Alcotest.test_case "per-run cache accounting" `Quick test_run_accounting;
    Alcotest.test_case "cache hit on equal subset" `Quick test_cache_hit_on_identical_subset;
    Alcotest.test_case "cache miss on new subset" `Quick test_cache_miss_on_different_subset;
    Alcotest.test_case "cached score = fresh score (csv)" `Quick
      test_cached_view_score_equals_fresh;
  ]
