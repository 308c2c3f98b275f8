(* Incremental-maintenance suite.

   The subsystem's central claim (DESIGN.md, "Incremental maintenance")
   is that delta-maintained state is indistinguishable — bit for bit —
   from throwing everything away and recomputing over the mutated
   table.  The tests hold every layer to it: the profile/multiset
   algebra against cold scans, patched prepared targets against cold
   preparation through full ContextMatch runs (jobs x kernel x
   warm/cold store), and the serve daemon's update-target against
   re-registering from scratch.
   The rest covers what the maintenance layer additionally owes its
   callers: rebuild fallbacks that preserve the identity, patched
   artefacts that survive flush/reopen, crash damage that quarantines
   without wrong answers, stores holding the delta records older
   versions wrote, and injected faults that leave the previous
   generation intact. *)

open Relational

let in_temp_dir f =
  let dir = Filename.temp_file "ctxdelta" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let check_profile_eq msg a b =
  Alcotest.(check int) (msg ^ ": total") (Textsim.Profile.total a) (Textsim.Profile.total b);
  Alcotest.(check bool)
    (msg ^ ": counts identical")
    true
    (Textsim.Profile.counts a = Textsim.Profile.counts b)

(* --- the delta value itself --------------------------------------------- *)

let syn_schema =
  Schema.make "S"
    [
      Attribute.int "id";
      Attribute.string "name";
      Attribute.string "cat";
      Attribute.float "price";
    ]

let syn_row id name cat price =
  [|
    Value.Int id;
    (match name with Some s -> Value.String s | None -> Value.Null);
    (match cat with Some s -> Value.String s | None -> Value.Null);
    (match price with Some f -> Value.Float f | None -> Value.Null);
  |]

let syn_table () =
  Table.of_rows syn_schema
    [|
      syn_row 1 (Some "red apple") (Some "fruit") (Some 1.5);
      syn_row 2 (Some "green apple") (Some "fruit") (Some 2.0);
      syn_row 3 (Some "carrot") (Some "veg") (Some 0.5);
      syn_row 4 None (Some "veg") None;
      syn_row 5 (Some "red apple") (Some "fruit") (Some 1.5);
      syn_row 6 (Some "plum") None (Some 3.25);
    |]

let test_core_validate_apply () =
  let tbl = syn_table () in
  let ok = Delta.make ~table:"S" ~appends:[| syn_row 7 (Some "pear") (Some "fruit") (Some 1.0) |]
      ~deletes:[| 2; 0; 2 |]
  in
  (match Delta.validate ok tbl with
  | Ok () -> ()
  | Error m -> Alcotest.failf "valid delta rejected: %s" m);
  Alcotest.(check bool) "deletes deduplicated and sorted" true (Delta.deletes ok = [| 0; 2 |]);
  Alcotest.(check int) "size counts appends + deletes" 3 (Delta.size ok);
  let deleted = Delta.deleted_rows ok tbl in
  Alcotest.(check int) "deleted snapshot arity" 2 (Array.length deleted);
  Alcotest.(check bool) "deleted snapshot rows" true
    (deleted.(0) = (Table.rows tbl).(0) && deleted.(1) = (Table.rows tbl).(2));
  let applied = Delta.apply ok tbl in
  Alcotest.(check int) "row count" 5 (Table.row_count applied);
  Alcotest.(check bool) "survivors keep order, appends go last" true
    (Table.rows applied
    = [|
        (Table.rows tbl).(1);
        (Table.rows tbl).(3);
        (Table.rows tbl).(4);
        (Table.rows tbl).(5);
        syn_row 7 (Some "pear") (Some "fruit") (Some 1.0);
      |]);
  Alcotest.(check bool) "churn" true (abs_float (Delta.churn ok tbl -. 0.5) < 1e-9);
  (* arity mismatch *)
  (match Delta.validate (Delta.make ~table:"S" ~appends:[| [| Value.Int 1 |] |] ~deletes:[||]) tbl with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "arity mismatch accepted");
  (* out-of-bounds delete *)
  match Delta.validate (Delta.make ~table:"S" ~appends:[||] ~deletes:[| 6 |]) tbl with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "out-of-bounds delete accepted"

(* --- maintained per-table state vs cold scans ---------------------------- *)

(* An append then a delete, folded into an attribute's maintained gram
   multiset, land count for count on the profile a cold scan of the
   surviving rows builds, and the scores riding on the counts are
   bitwise equal. *)
let test_profile_patch_inverts () =
  let live = Delta.Profiles.create (syn_table ()) in
  Delta.Profiles.apply live
    (Delta.make ~table:"S"
       ~appends:[| syn_row 7 (Some "yellow plum") (Some "fruit") (Some 3.25) |]
       ~deletes:[||]);
  (* rows 0 and 2 hold "red apple" and "carrot" *)
  Delta.Profiles.apply live (Delta.make ~table:"S" ~appends:[||] ~deletes:[| 0; 2 |]);
  let cold = Textsim.Profile.of_strings [ "green apple"; "red apple"; "plum"; "yellow plum" ] in
  match Delta.Profiles.profile live "name" with
  | None -> Alcotest.fail "no maintained profile for a textual attribute"
  | Some p ->
    check_profile_eq "maintained = cold" p cold;
    let cand = Textsim.Profile.of_strings [ "plum apple" ] in
    let bits x = Int64.bits_of_float (Textsim.Profile.cosine cand x) in
    Alcotest.(check bool) "cosine is non-trivial" true (Textsim.Profile.cosine cand cold > 0.0);
    Alcotest.(check int64) "cosine bit-identical" (bits cold) (bits p)

let check_profiles_cold msg live cold_table =
  let cold = Delta.Profiles.create cold_table in
  List.iter
    (fun attr ->
      (match (Delta.Profiles.profile live attr, Delta.Profiles.profile cold attr) with
      | Some a, Some b -> check_profile_eq (Printf.sprintf "%s: profile %s" msg attr) a b
      | None, None -> ()
      | _ -> Alcotest.failf "%s: profile presence differs for %s" msg attr);
      (match (Delta.Profiles.distinct live attr, Delta.Profiles.distinct cold attr) with
      | Some a, Some b ->
        Alcotest.(check (list string)) (Printf.sprintf "%s: distinct %s" msg attr) b a
      | None, None -> ()
      | _ -> Alcotest.failf "%s: distinct presence differs for %s" msg attr);
      match (Delta.Profiles.words live attr, Delta.Profiles.words cold attr) with
      | Some a, Some b ->
        Alcotest.(check (list string)) (Printf.sprintf "%s: words %s" msg attr) b a
      | None, None -> ()
      | _ -> Alcotest.failf "%s: words presence differs for %s" msg attr)
    [ "id"; "name"; "cat"; "price" ]

let test_profiles_match_cold () =
  let live = Delta.Profiles.create (syn_table ()) in
  let d1 =
    Delta.make ~table:"S"
      ~appends:
        [|
          syn_row 7 (Some "yellow plum") (Some "fruit") (Some 3.25);
          syn_row 8 None None None;
        |]
      ~deletes:[| 0; 3 |]
  in
  Delta.Profiles.apply live d1;
  check_profiles_cold "after delta 1" live (Delta.Profiles.table live);
  (* a second, delete-heavy delta over the patched state *)
  let d2 = Delta.make ~table:"S" ~appends:[| syn_row 9 (Some "carrot") (Some "veg") (Some 0.5) |]
      ~deletes:[| 0; 1; 2; 4 |]
  in
  Delta.Profiles.apply live d2;
  check_profiles_cold "after delta 2" live (Delta.Profiles.table live)

(* A condition value whose every row is deleted leaves no partition
   group over the maintained table, so no family counts a phantom
   group for it. *)
let test_profiles_delete_only_value () =
  let live = Delta.Profiles.create (syn_table ()) in
  (* rows 2 and 3 are the only "veg" rows *)
  let d = Delta.make ~table:"S" ~appends:[||] ~deletes:[| 2; 3 |] in
  Delta.Profiles.apply live d;
  let cache = Matching.Profile_cache.create () in
  let part =
    Matching.Profile_cache.partition cache ~table:(Delta.Profiles.table live) ~cond_attr:"cat"
  in
  Alcotest.(check bool) "dead value has no cold partition group" true
    (Matching.Profile_cache.partition_indices part (Value.String "veg") = None);
  Alcotest.(check bool) "live values keep their groups" true
    (Matching.Profile_cache.partition_indices part (Value.String "fruit") <> None)

(* --- Profile_cache partition edge cases ---------------------------------- *)

let test_cache_partition_edges () =
  let cache = Matching.Profile_cache.create () in
  (* all-null condition column: no groups at all *)
  let nulls =
    Table.of_rows syn_schema
      (Array.init 10 (fun i -> syn_row i (Some (Printf.sprintf "v%d" i)) None (Some 1.0)))
  in
  let part = Matching.Profile_cache.partition cache ~table:nulls ~cond_attr:"cat" in
  Alcotest.(check int) "all-null condition: no groups" 0 (Array.length part.Matching.Profile_cache.part_values);
  Alcotest.(check bool) "all-null condition: lookups miss" true
    (Matching.Profile_cache.partition_indices part (Value.String "x") = None);
  (* empty table *)
  let empty = Table.of_rows (Schema.make "E" [ Attribute.string "a"; Attribute.string "b" ]) [||] in
  let part = Matching.Profile_cache.partition cache ~table:empty ~cond_attr:"a" in
  Alcotest.(check int) "empty table: no groups" 0 (Array.length part.Matching.Profile_cache.part_values);
  (* duplicate condition values straddling chunk boundaries: 257 rows
     cycling through 3 values, so every chunking cut lands inside some
     value's run.  A fresh table name — partitions memoize by
     (table, cond_attr). *)
  let n = 257 in
  let cats = [| "fruit"; "veg"; "dairy" |] in
  let big_schema =
    Schema.make "Big"
      [
        Attribute.int "id";
        Attribute.string "name";
        Attribute.string "cat";
        Attribute.float "price";
      ]
  in
  let big =
    Table.of_rows big_schema
      (Array.init n (fun i ->
           syn_row i (Some (Printf.sprintf "item %d" i)) (Some cats.(i mod 3)) (Some 1.0)))
  in
  let part = Matching.Profile_cache.partition cache ~table:big ~cond_attr:"cat" in
  Alcotest.(check int) "three groups" 3 (Array.length part.Matching.Profile_cache.part_values);
  Array.iteri
    (fun vi v ->
      match Matching.Profile_cache.partition_indices part v with
      | None -> Alcotest.failf "group %d missing" vi
      | Some indices ->
        let want =
          Array.of_list
            (List.filter (fun i -> Value.compare (Table.cell big i "cat") v = 0)
               (List.init n Fun.id))
        in
        Alcotest.(check bool)
          (Printf.sprintf "group %s complete and ascending" (Value.to_string v))
          true (indices = want))
    part.Matching.Profile_cache.part_values

(* --- end-to-end differential: patched prepared target vs cold ----------- *)

let retail_params =
  { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 }

let source_db = Workload.Retail.source retail_params
let target_db = Workload.Retail.target retail_params Workload.Retail.Ryan_eyers

let match_strings ?(jobs = 1) ?(kernel = true) ?store ?prepared ~target () =
  let config = { Ctxmatch.Config.default with jobs; kernel } in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  let r = Ctxmatch.Context_match.run ~config ?store ?prepared ~infer ~source:source_db ~target () in
  ( List.map Matching.Schema_match.to_string r.Ctxmatch.Context_match.matches,
    List.map Robust.Error.to_string r.Ctxmatch.Context_match.issues )

(* Copies of existing rows: small deltas of them stay under the churn
   limit, so they take the patch path. *)
let copy_rows tbl indices = Array.map (fun i -> (Table.rows tbl).(i)) indices

let expect_patched m d =
  match Delta.Maintain.update m d with
  | Ok Delta.Maintain.Patched -> ()
  | Ok (Delta.Maintain.Rebuilt reason) -> Alcotest.failf "expected a patch, rebuilt: %s" reason
  | Error e -> Alcotest.failf "update failed: %s" e

let run_maintain_differential ~kernel ~store_dir () =
  let store = Option.map Store.open_dir store_dir in
  let prepared = Matching.Standard_match.prepare_target ?store ~kernel ~target:target_db () in
  (* churn limit above both deltas, so even the delete-heavy one takes
     the patch path under test *)
  let m = Delta.Maintain.create ?store ~kernel ~churn:0.5 ~target:target_db ~prepared () in
  let book = Database.table target_db "Book" in
  expect_patched m
    (Delta.make ~table:"Book" ~appends:(copy_rows book [| 0; 2 |]) ~deletes:[| 1; 3; 5 |]);
  let music = Database.table (Delta.Maintain.target m) "Music" in
  expect_patched m
    (Delta.make ~table:"Music"
       ~appends:(copy_rows music [| 4 |])
       ~deletes:(Array.init 18 (fun i -> i * 3)));
  Alcotest.(check int) "two generations" 2 (Delta.Maintain.generation m);
  let mutated = Delta.Maintain.target m in
  let pure_matches, pure_issues = match_strings ~kernel ~target:mutated () in
  Alcotest.(check bool) "oracle found matches" true (pure_matches <> []);
  List.iter
    (fun jobs ->
      let live_matches, live_issues =
        match_strings ~jobs ~kernel ?store ~prepared:(Delta.Maintain.prepared m) ~target:mutated ()
      in
      Alcotest.(check (list string))
        (Printf.sprintf "patched matches = cold (jobs %d)" jobs)
        pure_matches live_matches;
      Alcotest.(check (list string))
        (Printf.sprintf "patched issues = cold (jobs %d)" jobs)
        pure_issues live_issues)
    [ 1; 2 ];
  (* warm store: a fresh process over the written-through artefacts
     must land on the same bytes *)
  match store_dir with
  | None -> ()
  | Some dir ->
    Option.iter Store.flush store;
    let warm = Store.open_dir dir in
    let warm_matches, warm_issues = match_strings ~kernel ~store:warm ~target:mutated () in
    Alcotest.(check (list string)) "warm-store matches = cold" pure_matches warm_matches;
    Alcotest.(check (list string)) "warm-store issues = cold" pure_issues warm_issues

let test_maintain_differential_kernel () = run_maintain_differential ~kernel:true ~store_dir:None ()
let test_maintain_differential_nokernel () =
  run_maintain_differential ~kernel:false ~store_dir:None ()

let test_maintain_differential_store () =
  in_temp_dir @@ fun dir -> run_maintain_differential ~kernel:true ~store_dir:(Some dir) ()

let test_maintain_differential_store_nokernel () =
  in_temp_dir @@ fun dir -> run_maintain_differential ~kernel:false ~store_dir:(Some dir) ()

(* Rebuild fallbacks: a churny delta rebuilds cold, while an append of
   grams the target has never held patches like any other small delta
   — and the identity with a cold run must hold either way. *)
let test_maintain_rebuild_fallbacks () =
  let prepared = Matching.Standard_match.prepare_target ~target:target_db () in
  let m = Delta.Maintain.create ~churn:0.05 ~target:target_db ~prepared () in
  let book = Database.table target_db "Book" in
  (match
     Delta.Maintain.update m
       (Delta.make ~table:"Book" ~appends:(copy_rows book [| 0; 1; 2; 3 |]) ~deletes:[| 0; 1 |])
   with
  | Ok (Delta.Maintain.Rebuilt reason) ->
    Alcotest.(check bool) "reason names churn" true
      (String.length reason >= 5 && String.sub reason 0 5 = "churn")
  | Ok Delta.Maintain.Patched -> Alcotest.fail "churny delta took the patch path"
  | Error e -> Alcotest.failf "update failed: %s" e);
  (* an append of grams no target column holds (out of vocabulary), on
     a permissive churn limit *)
  let m2 = Delta.Maintain.create ~churn:0.5 ~target:target_db ~prepared () in
  let oov_row =
    let r = Array.copy (Table.rows book).(0) in
    r.(1) <- Value.String "zzqqxxjj wwkkvvyy";
    r
  in
  expect_patched m2 (Delta.make ~table:"Book" ~appends:[| oov_row |] ~deletes:[||]);
  List.iter
    (fun (what, mm) ->
      let mutated = Delta.Maintain.target mm in
      let want, want_issues = match_strings ~target:mutated () in
      let got, got_issues =
        match_strings ~prepared:(Delta.Maintain.prepared mm) ~target:mutated ()
      in
      Alcotest.(check (list string)) (what ^ " matches = cold") want got;
      Alcotest.(check (list string)) (what ^ " issues = cold") want_issues got_issues)
    [ ("rebuilt", m); ("out-of-vocabulary patched", m2) ];
  (* rejected deltas leave the state alone *)
  (match Delta.Maintain.update m (Delta.make ~table:"NoSuch" ~appends:[||] ~deletes:[| 0 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown table accepted");
  match
    Delta.Maintain.update m (Delta.make ~table:"Book" ~appends:[||] ~deletes:[| 99999 |])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "out-of-bounds delete accepted"

(* An injected fault at the delta-apply site fires before any state is
   touched: the update raises, the previous generation keeps serving,
   and a retry with the fault disarmed succeeds. *)
let test_maintain_fault_containment () =
  let prepared = Matching.Standard_match.prepare_target ~target:target_db () in
  let m = Delta.Maintain.create ~target:target_db ~prepared () in
  let before, _ = match_strings ~prepared:(Delta.Maintain.prepared m) ~target:target_db () in
  let book = Database.table target_db "Book" in
  let d = Delta.make ~table:"Book" ~appends:(copy_rows book [| 0 |]) ~deletes:[| 1 |] in
  (Robust.Fault.with_armed
     [ { Robust.Fault.site = Robust.Fault.Delta_apply; rate = 1.0; seed = 0 } ]
     (fun () ->
       match Delta.Maintain.update m d with
       | exception Robust.Fault.Injected { site = Robust.Fault.Delta_apply; _ } -> ()
       | Ok _ -> Alcotest.fail "armed fault did not fire"
       | Error e -> Alcotest.failf "unexpected rejection: %s" e));
  Alcotest.(check int) "no generation consumed" 0 (Delta.Maintain.generation m);
  let after, _ = match_strings ~prepared:(Delta.Maintain.prepared m) ~target:target_db () in
  Alcotest.(check (list string)) "old generation still serves" before after;
  expect_patched m d;
  Alcotest.(check int) "retry succeeds" 1 (Delta.Maintain.generation m)

(* A fault after the maintained state has taken the delta (here a memo
   probe while [patch_prepared] seeds and re-warms the patched columns)
   must not leave the delta half applied: the update raises with
   nothing advanced, and a retry of the same delta applies it once,
   landing on the matches of a cold run over the intended table. *)
let test_maintain_failed_patch () =
  let prepared = Matching.Standard_match.prepare_target ~target:target_db () in
  let m = Delta.Maintain.create ~target:target_db ~prepared () in
  let book = Database.table target_db "Book" in
  let d = Delta.make ~table:"Book" ~appends:(copy_rows book [| 0 |]) ~deletes:[| 1; 2 |] in
  (Robust.Fault.with_armed
     [ { Robust.Fault.site = Robust.Fault.Memo_lookup; rate = 1.0; seed = 0 } ]
     (fun () ->
       match Delta.Maintain.update m d with
       | exception Robust.Fault.Injected { site = Robust.Fault.Memo_lookup; _ } -> ()
       | Ok _ -> Alcotest.fail "armed fault did not fire"
       | Error e -> Alcotest.failf "unexpected rejection: %s" e));
  Alcotest.(check int) "no generation consumed" 0 (Delta.Maintain.generation m);
  Alcotest.(check int) "target untouched" (Table.row_count book)
    (Table.row_count (Database.table (Delta.Maintain.target m) "Book"));
  expect_patched m d;
  let intended = Database.replace_table target_db (Delta.apply d book) in
  Alcotest.(check int) "retry applies the delta once"
    (Table.row_count (Database.table intended "Book"))
    (Table.row_count (Database.table (Delta.Maintain.target m) "Book"));
  let want, want_issues = match_strings ~target:intended () in
  let got, got_issues = match_strings ~prepared:(Delta.Maintain.prepared m) ~target:intended () in
  Alcotest.(check (list string)) "retried matches = cold" want got;
  Alcotest.(check (list string)) "retried issues = cold" want_issues got_issues

(* --- what a patch persists ------------------------------------------------ *)

(* Patch Book once through a store at [dir], match the mutated target
   over the store and flush; returns the mutated target.  The source
   artefacts and the patched Book's are then on disk, so a run over the
   mutated target from a fresh open of [dir] should build nothing. *)
let patched_store dir =
  let store = Store.open_dir dir in
  let prepared = Matching.Standard_match.prepare_target ~store ~target:target_db () in
  let m = Delta.Maintain.create ~store ~target:target_db ~prepared () in
  let book = Database.table target_db "Book" in
  expect_patched m
    (Delta.make ~table:"Book" ~appends:(copy_rows book [| 0 |]) ~deletes:[| 1; 2 |]);
  let mutated = Delta.Maintain.target m in
  (* a match over the patched artefact stores the source's artefacts *)
  ignore (match_strings ~store ~prepared:(Delta.Maintain.prepared m) ~target:mutated ());
  Store.flush store;
  mutated

let run_over_store dir ~target =
  let store = Store.open_dir dir in
  let config = { Ctxmatch.Config.default with jobs = 1 } in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  let r = Ctxmatch.Context_match.run ~config ~store ~infer ~source:source_db ~target () in
  (store, r)

let test_store_patched_artefacts () =
  in_temp_dir @@ fun dir ->
  let mutated = patched_store dir in
  let store, r = run_over_store dir ~target:mutated in
  Alcotest.(check int) "patched artefacts persisted: no builds after reopen" 0
    r.Ctxmatch.Context_match.profile_builds;
  Alcotest.(check int) "nothing quarantined" 0 (Store.stats store).Store.st_quarantined;
  let want, _ = match_strings ~target:mutated () in
  Alcotest.(check (list string)) "warm matches = cold" want
    (List.map Matching.Schema_match.to_string r.Ctxmatch.Context_match.matches)

let shard_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dat")
  |> List.sort String.compare

let read_text path = In_channel.with_open_bin path In_channel.input_all

(* Delta then crash: a torn write truncates a shard that the patch
   wrote; verify reports it, reopening quarantines it, and matching
   over the store still answers correctly (artefacts rebuild). *)
let test_store_delta_crash () =
  in_temp_dir @@ fun dir ->
  let store = Store.open_dir dir in
  let prepared = Matching.Standard_match.prepare_target ~store ~target:target_db () in
  Store.flush store;
  let before = List.map (fun f -> (f, read_text (Filename.concat dir f))) (shard_files dir) in
  let m = Delta.Maintain.create ~store ~target:target_db ~prepared () in
  let book = Database.table target_db "Book" in
  expect_patched m
    (Delta.make ~table:"Book" ~appends:(copy_rows book [| 0 |]) ~deletes:[| 1; 2 |]);
  Store.flush store;
  let mutated = Delta.Maintain.target m in
  (* tear a shard that the patch rewrote *)
  let written =
    List.filter
      (fun f -> List.assoc_opt f before <> Some (read_text (Filename.concat dir f)))
      (shard_files dir)
  in
  (match written with
  | [] -> Alcotest.fail "the patch wrote no shard"
  | f :: _ ->
    let path = Filename.concat dir f in
    let text = read_text path in
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (String.sub text 0 (String.length text / 2))));
  let report = Store.verify dir in
  Alcotest.(check bool) "verify flags the torn shard" true (report.Store.vr_truncated >= 1);
  Alcotest.(check bool) "verify not healthy" true (not (Store.verify_healthy report));
  let s2, _ = run_over_store dir ~target:mutated in
  Alcotest.(check bool) "reopening quarantines the torn shard" true
    ((Store.stats s2).Store.st_quarantined >= 1);
  (* matching over the damaged store still answers, identically to a
     storeless run *)
  let want, _ = match_strings ~target:mutated () in
  let got, _ = match_strings ~store:s2 ~target:mutated () in
  Alcotest.(check (list string)) "matches correct despite crash damage" want got

(* A delta record as the store wrote them while it kept a delta log
   (kind X: address, then table name and the from and to table digests
   in hex, the old row count and the append and delete counts; then the
   appended rows, the delete indices and the deleted rows), copied from
   a store that patched Book as [patched_store] does. *)
let legacy_record ~indices =
  [
    "X dbe7ed0939e1b20934fd0f22767d1cf4 426f6f6b "
    ^ "3135353663633864613833313763633535663733303762303463306663376433 "
    ^ "3932616333663539366266386165643831633866613764616462626566376237 60 1 2";
    "R i1 s746865206d616e75736372697074206f66207468652070726f666573736f72 "
    ^ "s70656e656c6f7065206669747a676572616c64 s736d697468736f6e207072657373 "
    ^ "f4626608676221596071 i2000";
    indices;
    "Q i2 s6120706f727472616974206f662068616e64626f6f6b "
    ^ "s6a6f6e617468616e20726176656e73776f6f64 "
    ^ "s70656e6775696e20686f7573652065646974696f6e73 f4627508040525561317 i1966";
    "Q i3 s616e2070726f666573736f7220746f20646574656374697665 "
    ^ "s6d61726761726574206c6f636b68617274 s686172626f72206c616e65207072657373 "
    ^ "f4617537879760175197 i1972";
  ]

(* A shard holding such a record opens with no quarantine, verifies
   clean and keeps serving its other entries; a malformed record is
   still corrupt. *)
let test_store_legacy_deltas () =
  in_temp_dir @@ fun dir ->
  let mutated = patched_store dir in
  let path = Filename.concat dir (List.hd (shard_files dir)) in
  let lines = String.split_on_char '\n' (String.trim (read_text path)) in
  let body = List.filteri (fun i _ -> i < List.length lines - 1) lines in
  let n = Scanf.sscanf (List.nth lines (List.length lines - 1)) "END %d" Fun.id in
  (* splice the record in before the END footer, counted there *)
  let write_with record =
    Out_channel.with_open_bin path (fun oc ->
        List.iter
          (fun l -> Out_channel.output_string oc (l ^ "\n"))
          (body @ record @ [ Printf.sprintf "END %d" (n + 1) ]))
  in
  write_with (legacy_record ~indices:"I 1 2");
  let report = Store.verify dir in
  Alcotest.(check bool) "verify calls it clean" true
    (Store.verify_healthy report && report.Store.vr_clean = List.length (shard_files dir));
  let store, r = run_over_store dir ~target:mutated in
  Alcotest.(check int) "opens with no quarantine" 0 (Store.stats store).Store.st_quarantined;
  Alcotest.(check int) "other entries still hit: no builds" 0
    r.Ctxmatch.Context_match.profile_builds;
  write_with (legacy_record ~indices:"I 1");
  Alcotest.(check int) "a record one delete index short is corrupt" 1
    (Store.verify dir).Store.vr_corrupt

(* --- the serve daemon's update surface ----------------------------------- *)

let csv_payload db =
  List.map
    (fun table -> (Table.name table, Csv_io.table_to_csv table))
    (Database.tables db)

let target_payload = csv_payload target_db
let source_payload = csv_payload source_db

let fresh_socket dir = Filename.concat dir (Printf.sprintf "d%d.sock" (Random.int 1_000_000))

let with_server ?(configure = fun c -> c) dir f =
  let address = Serve.Server.Unix_sock (fresh_socket dir) in
  let config = configure (Serve.Server.default_config address) in
  let server = Serve.Server.create config in
  let thread = Serve.Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join thread)
    (fun () -> f server address)

let with_client address f =
  let client = Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 address in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () -> f client)

let expect_field json name =
  match Serve.Json.member name json with
  | Some v -> v
  | None -> Alcotest.failf "reply missing field %S: %s" name (Serve.Json.to_string json)

let expect_ok json =
  match Serve.Json.to_bool (expect_field json "ok") with
  | Some true -> ()
  | _ -> Alcotest.failf "reply not ok: %s" (Serve.Json.to_string json)

let expect_reject ~code json =
  (match Serve.Json.to_bool (expect_field json "ok") with
  | Some false -> ()
  | _ -> Alcotest.failf "expected a reject, got: %s" (Serve.Json.to_string json));
  match Serve.Json.to_string_opt (expect_field json "code") with
  | Some c when c = code -> ()
  | _ -> Alcotest.failf "expected reject code %S, got: %s" code (Serve.Json.to_string json)

let int_field json name =
  match Serve.Json.to_int (expect_field json name) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an int" name

let string_field json name =
  match Serve.Json.to_string_opt (expect_field json name) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let string_list json name =
  match Serve.Json.to_list_opt (expect_field json name) with
  | Some l ->
    List.map
      (fun v ->
        match Serve.Json.to_string_opt v with
        | Some s -> s
        | None -> Alcotest.failf "field %S holds a non-string" name)
      l
  | None -> Alcotest.failf "field %S is not a list" name

let value_to_json = function
  | Value.Null -> Serve.Json.Null
  | Value.Int n -> Serve.Json.Int n
  | Value.Float f -> Serve.Json.Float f
  | Value.Bool b -> Serve.Json.Bool b
  | Value.String s -> Serve.Json.String s

let json_rows tbl indices =
  Array.to_list
    (Array.map (fun i -> Array.to_list (Array.map value_to_json (Table.rows tbl).(i))) indices)

let send_update client ?(appends = []) ?(deletes = []) ~target ~table () =
  Serve.Client.request client (Serve.Protocol.update_json ~appends ~deletes ~target ~table ())

let registry_entry reply name =
  match Serve.Json.to_list_opt (expect_field reply "targets") with
  | None -> Alcotest.fail "targets is not a list"
  | Some l -> (
    match
      List.find_opt
        (fun e -> Serve.Json.to_string_opt (expect_field e "name") = Some name)
        l
    with
    | Some e -> e
    | None -> Alcotest.failf "target %S not listed" name)

let test_serve_update_and_list () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  expect_ok (Serve.Client.request client (Serve.Protocol.register_json ~name:"retail" target_payload));
  (* generation 0 in the registry listing *)
  let listing = Serve.Client.request client Serve.Protocol.list_targets_json in
  expect_ok listing;
  let entry = registry_entry listing "retail" in
  Alcotest.(check int) "fresh target at generation 0" 0 (int_field entry "generation");
  Alcotest.(check string) "breaker closed" "closed" (string_field entry "breaker");
  (* a small in-vocabulary delta patches *)
  let book = Database.table target_db "Book" in
  let d1 = Delta.make ~table:"Book" ~appends:(copy_rows book [| 4; 5 |]) ~deletes:[| 0; 2 |] in
  let reply =
    send_update client ~appends:(json_rows book [| 4; 5 |]) ~deletes:[ 0; 2 ] ~target:"retail"
      ~table:"Book" ()
  in
  expect_ok reply;
  Alcotest.(check string) "patched" "patched" (string_field reply "mode");
  Alcotest.(check int) "generation 1" 1 (int_field reply "generation");
  Alcotest.(check int) "row count tracks the delta" (Table.row_count book)
    (int_field reply "rows");
  (* the served match now scores the mutated target, byte-identically
     to a one-shot run over it *)
  let mutated = Database.replace_table target_db (Delta.apply d1 book) in
  let want, want_issues = match_strings ~target:mutated () in
  let match_reply =
    Serve.Client.request client (Serve.Protocol.match_json ~target:"retail" source_payload)
  in
  expect_ok match_reply;
  Alcotest.(check (list string)) "served matches = one-shot over mutated target" want
    (string_list match_reply "matches");
  Alcotest.(check (list string)) "served issues = one-shot" want_issues
    (string_list match_reply "issues");
  (* a churny delete-heavy delta falls back to a rebuild, same identity *)
  let book1 = Database.table mutated "Book" in
  let heavy_deletes = List.init 20 (fun i -> i * 2) in
  let d2 =
    Delta.make ~table:"Book" ~appends:[||] ~deletes:(Array.of_list heavy_deletes)
  in
  let reply = send_update client ~deletes:heavy_deletes ~target:"retail" ~table:"Book" () in
  expect_ok reply;
  Alcotest.(check string) "rebuilt" "rebuilt" (string_field reply "mode");
  Alcotest.(check int) "generation 2" 2 (int_field reply "generation");
  let mutated2 = Database.replace_table mutated (Delta.apply d2 book1) in
  let want2, _ = match_strings ~target:mutated2 () in
  let match_reply =
    Serve.Client.request client (Serve.Protocol.match_json ~target:"retail" source_payload)
  in
  expect_ok match_reply;
  Alcotest.(check (list string)) "served matches after rebuild" want2
    (string_list match_reply "matches");
  (* the registry reflects both updates *)
  let listing = Serve.Client.request client Serve.Protocol.list_targets_json in
  expect_ok listing;
  let entry = registry_entry listing "retail" in
  Alcotest.(check int) "listed generation 2" 2 (int_field entry "generation");
  Alcotest.(check string) "breaker still closed" "closed" (string_field entry "breaker");
  Alcotest.(check int) "no failures" 0 (int_field entry "failures")

let test_serve_update_rejects () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  expect_ok (Serve.Client.request client (Serve.Protocol.register_json ~name:"retail" target_payload));
  let book = Database.table target_db "Book" in
  (* unknown target / unknown table / bad rows — all structured rejects *)
  expect_reject ~code:"unknown-target"
    (send_update client ~deletes:[ 0 ] ~target:"nope" ~table:"Book" ());
  expect_reject ~code:"bad-request"
    (send_update client ~deletes:[ 0 ] ~target:"retail" ~table:"NoSuch" ());
  expect_reject ~code:"bad-request"
    (send_update client ~appends:[ [ Serve.Json.Int 1 ] ] ~target:"retail" ~table:"Book" ());
  expect_reject ~code:"bad-request"
    (send_update client
       ~appends:[ [ Serve.Json.String "x"; Serve.Json.Int 1; Serve.Json.Int 1;
                    Serve.Json.Int 1; Serve.Json.Int 1; Serve.Json.Int 1 ] ]
       ~target:"retail" ~table:"Book" ());
  expect_reject ~code:"bad-request"
    (send_update client ~deletes:[ 99999 ] ~target:"retail" ~table:"Book" ());
  expect_reject ~code:"bad-request" (send_update client ~target:"retail" ~table:"Book" ());
  (* none of that consumed a generation or touched the breaker *)
  let listing = Serve.Client.request client Serve.Protocol.list_targets_json in
  expect_ok listing;
  let entry = registry_entry listing "retail" in
  Alcotest.(check int) "generation still 0" 0 (int_field entry "generation");
  Alcotest.(check string) "breaker untouched by update failures" "closed"
    (string_field entry "breaker");
  Alcotest.(check int) "failure counter untouched" 0 (int_field entry "failures");
  (* and the target still matches *)
  let reply = send_update client ~appends:(json_rows book [| 0 |]) ~target:"retail" ~table:"Book" () in
  expect_ok reply;
  Alcotest.(check int) "clean update still works" 1 (int_field reply "generation")

let () =
  Alcotest.run "delta"
    [
      ( "profile-algebra",
        [
          Alcotest.test_case "patch inverts exactly" `Quick test_profile_patch_inverts;
        ] );
      ( "delta-core",
        [ Alcotest.test_case "validate and apply" `Quick test_core_validate_apply ] );
      ( "profiles",
        [
          Alcotest.test_case "maintained = cold scan" `Quick test_profiles_match_cold;
          Alcotest.test_case "delete-only condition value" `Quick test_profiles_delete_only_value;
        ] );
      ( "cache-partitions",
        [ Alcotest.test_case "edge cases" `Quick test_cache_partition_edges ] );
      ( "maintain-differential",
        [
          Alcotest.test_case "kernel" `Quick test_maintain_differential_kernel;
          Alcotest.test_case "no kernel" `Quick test_maintain_differential_nokernel;
          Alcotest.test_case "store, kernel" `Quick test_maintain_differential_store;
          Alcotest.test_case "store, no kernel" `Quick test_maintain_differential_store_nokernel;
          Alcotest.test_case "rebuild fallbacks" `Quick test_maintain_rebuild_fallbacks;
          Alcotest.test_case "fault containment" `Quick test_maintain_fault_containment;
          Alcotest.test_case "failed patch leaves no trace" `Quick test_maintain_failed_patch;
        ] );
      ( "store-deltas",
        [
          Alcotest.test_case "patched artefacts persisted" `Quick test_store_patched_artefacts;
          Alcotest.test_case "delta then crash" `Quick test_store_delta_crash;
          Alcotest.test_case "legacy delta records skipped" `Quick test_store_legacy_deltas;
        ] );
      ( "serve",
        [
          Alcotest.test_case "update-target and list-targets" `Quick test_serve_update_and_list;
          Alcotest.test_case "update rejects" `Quick test_serve_update_rejects;
        ] );
    ]
