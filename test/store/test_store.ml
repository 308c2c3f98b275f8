(* Persistent profile store: serialisation roundtrips, crash safety
   (truncated shards, stale format versions, data-digest mismatches all
   quarantine-and-rebuild, never raise), and the end-to-end warm-start
   guarantee — a second run over unchanged inputs recomputes nothing
   and produces byte-identical matches. *)

open Relational

let in_temp_dir f =
  let dir = Filename.temp_file "ctxstore" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let key ~table ~attr =
  { Store.table; attr; subset = "sub"; data = "data" }

let sample_profile () =
  Textsim.Profile.of_strings_array [| "alpha"; "beta"; "gamma, delta" |]

let sample_summary () =
  Stats.Descriptive.summarize [| 1.5; 2.25; -3.0; 1e100; 0.1 |]

(* --- roundtrip --------------------------------------------------------- *)

let test_roundtrip () =
  in_temp_dir @@ fun dir ->
  let s = Store.open_dir dir in
  let p = sample_profile () in
  let sm = sample_summary () in
  let d = [ "a"; "weird \"value\"\nwith newline"; "z" ] in
  Store.add_profile s (key ~table:"T" ~attr:"a") p;
  Store.add_summary s (key ~table:"T" ~attr:"b") sm;
  Store.add_distinct s (key ~table:"T" ~attr:"c") d;
  Store.flush s;
  let s2 = Store.open_dir dir in
  (match Store.find_profile s2 (key ~table:"T" ~attr:"a") with
  | None -> Alcotest.fail "profile lost"
  | Some p2 ->
    Alcotest.(check int) "total" (Textsim.Profile.total p) (Textsim.Profile.total p2);
    Alcotest.(check bool) "counts identical" true
      (Textsim.Profile.counts p = Textsim.Profile.counts p2);
    (* the warm-start guarantee hinges on this: bit-identical scores *)
    Alcotest.(check bool) "cosine bit-identical" true
      (Textsim.Profile.cosine p p = Textsim.Profile.cosine p2 p2));
  (match Store.find_summary s2 (key ~table:"T" ~attr:"b") with
  | None -> Alcotest.fail "summary lost"
  | Some sm2 -> Alcotest.(check bool) "summary bit-identical" true (sm = sm2));
  (match Store.find_distinct s2 (key ~table:"T" ~attr:"c") with
  | None -> Alcotest.fail "distinct lost"
  | Some d2 -> Alcotest.(check (list string)) "distinct values" d d2);
  Alcotest.(check bool) "misses on an absent key" true
    (Store.find_profile s2 (key ~table:"T" ~attr:"zzz") = None);
  let st = Store.stats s2 in
  Alcotest.(check int) "no quarantines" 0 st.Store.st_quarantined

let test_nonfinite_summary_roundtrip () =
  in_temp_dir @@ fun dir ->
  let s = Store.open_dir dir in
  (* empty summary carries nan min/max; %h must round-trip them *)
  Store.add_summary s (key ~table:"T" ~attr:"e") Stats.Descriptive.empty_summary;
  Store.flush s;
  let s2 = Store.open_dir dir in
  match Store.find_summary s2 (key ~table:"T" ~attr:"e") with
  | None -> Alcotest.fail "summary lost"
  | Some sm ->
    Alcotest.(check int) "n" 0 sm.Stats.Descriptive.n;
    Alcotest.(check bool) "nan min survives" true (Float.is_nan sm.Stats.Descriptive.min);
    Alcotest.(check bool) "nan max survives" true (Float.is_nan sm.Stats.Descriptive.max)

(* --- crash safety ------------------------------------------------------ *)

let shard_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".dat")
  |> List.sort compare

let populate dir =
  let s = Store.open_dir dir in
  for i = 0 to 19 do
    Store.add_profile s (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)) (sample_profile ())
  done;
  Store.flush s

let truncate_file path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub text 0 (String.length text / 2)))

let check_quarantined ~expect_issue dir f =
  populate dir;
  let before = shard_files dir in
  Alcotest.(check bool) "some shards written" true (before <> []);
  f (Filename.concat dir (List.hd before));
  let report = Robust.Report.create () in
  let s = Store.open_dir ~report dir in
  (* force every shard to load *)
  let found = ref 0 in
  for i = 0 to 19 do
    match Store.find_profile s (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)) with
    | Some _ -> incr found
    | None -> ()
  done;
  let st = Store.stats s in
  Alcotest.(check bool) "damaged shard quarantined" true (st.Store.st_quarantined >= 1);
  Alcotest.(check bool) "other shards still serve" true (!found > 0 && !found < 20);
  Alcotest.(check bool) "quarantined file set aside" true
    (Sys.readdir dir |> Array.exists (fun x -> Filename.check_suffix x ".quarantined"));
  if expect_issue then begin
    match Store.issues s with
    | [] -> Alcotest.fail "no issue recorded"
    | issue :: _ ->
      Alcotest.(check string) "store stage" "store" (Robust.Error.stage_name issue.Robust.Error.stage);
      Alcotest.(check bool) "warning severity" true
        (issue.Robust.Error.severity = Robust.Error.Warning);
      Alcotest.(check int) "mirrored into the report" (List.length (Store.issues s))
        (Robust.Report.count report)
  end;
  (* rebuild: recompute, flush, reopen clean *)
  for i = 0 to 19 do
    let k = key ~table:"T" ~attr:(Printf.sprintf "a%d" i) in
    if Store.find_profile s k = None then Store.add_profile s k (sample_profile ())
  done;
  Store.flush s;
  let s2 = Store.open_dir dir in
  let all = ref true in
  for i = 0 to 19 do
    if Store.find_profile s2 (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)) = None then
      all := false
  done;
  Alcotest.(check bool) "rebuilt store serves everything" true !all;
  Alcotest.(check int) "rebuilt store is clean" 0 (Store.stats s2).Store.st_quarantined

let test_truncated_shard () =
  in_temp_dir @@ fun dir -> check_quarantined ~expect_issue:true dir truncate_file

let test_garbage_shard () =
  in_temp_dir @@ fun dir ->
  check_quarantined ~expect_issue:true dir (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "not a shard at all\n"))

let test_stale_format_version () =
  in_temp_dir @@ fun dir ->
  check_quarantined ~expect_issue:true dir (fun path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let nl = String.index text '\n' in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (Printf.sprintf "ctxstore %d shard 0/8" (Store.format_version + 1));
          Out_channel.output_string oc
            (String.sub text nl (String.length text - nl))))

(* Profiles are 3-gram profiles: a record of any other gram size is
   corrupt, and quarantines its shard like any other damage. *)
let test_foreign_gram_size () =
  in_temp_dir @@ fun dir ->
  check_quarantined ~expect_issue:true dir (fun path ->
      let lines = String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all) in
      let rewritten = ref false in
      let lines =
        List.map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "P"; addr; "3"; total; n ] when not !rewritten ->
              rewritten := true;
              String.concat " " [ "P"; addr; "4"; total; n ]
            | _ -> line)
          lines
      in
      Alcotest.(check bool) "a profile record rewritten" true !rewritten;
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" lines)))

(* A negative record count is corrupt like any other damage: the
   shard verifies as corrupt and quarantines on open, and no
   [Invalid_argument] from sizing the record escapes either path. *)
let test_negative_count () =
  in_temp_dir @@ fun dir ->
  check_quarantined ~expect_issue:true dir (fun path ->
      let text = In_channel.with_open_bin path In_channel.input_all in
      let lines = String.split_on_char '\n' text in
      let rewritten = ref false in
      let lines =
        List.map
          (fun line ->
            match String.split_on_char ' ' line with
            | [ "P"; addr; q; total; _ ] when not !rewritten ->
              rewritten := true;
              String.concat " " [ "P"; addr; q; total; "-1" ]
            | _ -> line)
          lines
      in
      Alcotest.(check bool) "a profile record rewritten" true !rewritten;
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.concat "\n" lines));
      let r = Store.verify (Filename.dirname path) in
      Alcotest.(check int) "verify calls it corrupt" 1 r.Store.vr_corrupt)

let test_stale_index_quarantines_all () =
  in_temp_dir @@ fun dir ->
  populate dir;
  let shards = shard_files dir in
  Out_channel.with_open_bin (Filename.concat dir "store.index") (fun oc ->
      Out_channel.output_string oc
        (Printf.sprintf "ctxstore-index %d shards 8\n" (Store.format_version + 1)));
  let s = Store.open_dir dir in
  Alcotest.(check bool) "index quarantined" true ((Store.stats s).Store.st_quarantined >= 1);
  Alcotest.(check (list string)) "every shard set aside" []
    (shard_files dir |> List.filter (fun f -> List.mem f shards));
  for i = 0 to 19 do
    Alcotest.(check bool) "store restarts empty" true
      (Store.find_profile s (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)) = None)
  done

let test_readonly_never_writes () =
  in_temp_dir @@ fun parent ->
  let dir = Filename.concat parent "ro" in
  let s = Store.open_dir ~readonly:true dir in
  Store.add_profile s (key ~table:"T" ~attr:"a") (sample_profile ());
  Store.flush s;
  Alcotest.(check bool) "directory not even created" false (Sys.file_exists dir);
  (* corrupt file under readonly: quarantined in memory, left on disk *)
  let dir2 = Filename.concat parent "ro2" in
  populate dir2;
  let shards = shard_files dir2 in
  truncate_file (Filename.concat dir2 (List.hd shards));
  let before = Sys.readdir dir2 |> Array.to_list |> List.sort compare in
  let s2 = Store.open_dir ~readonly:true dir2 in
  for i = 0 to 19 do
    ignore (Store.find_profile s2 (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)))
  done;
  Alcotest.(check bool) "quarantine counted" true ((Store.stats s2).Store.st_quarantined >= 1);
  Alcotest.(check (list string)) "files untouched" before
    (Sys.readdir dir2 |> Array.to_list |> List.sort compare)

(* --- table digest ------------------------------------------------------ *)

let mk_table name rows =
  Table.make
    (Schema.make name [ Attribute.string "x"; Attribute.float "y" ])
    (List.map (fun (s, f) -> [| Value.String s; Value.Float f |]) rows)

let test_table_digest_sensitivity () =
  let t1 = mk_table "T" [ ("a", 1.0); ("b", 2.0) ] in
  let same = mk_table "T" [ ("a", 1.0); ("b", 2.0) ] in
  let cell = mk_table "T" [ ("a", 1.0); ("b", 2.5) ] in
  let order = mk_table "T" [ ("b", 2.0); ("a", 1.0) ] in
  let named = mk_table "U" [ ("a", 1.0); ("b", 2.0) ] in
  Alcotest.(check string) "equal content, equal digest" (Store.table_digest t1)
    (Store.table_digest same);
  Alcotest.(check bool) "one cell changes it" true
    (Store.table_digest t1 <> Store.table_digest cell);
  Alcotest.(check bool) "row order changes it" true
    (Store.table_digest t1 <> Store.table_digest order);
  Alcotest.(check bool) "name changes it" true
    (Store.table_digest t1 <> Store.table_digest named)

let test_data_digest_mismatch_misses () =
  in_temp_dir @@ fun dir ->
  let s = Store.open_dir dir in
  let t1 = mk_table "T" [ ("a", 1.0); ("b", 2.0) ] in
  let k1 = { Store.table = "T"; attr = "x"; subset = "sub"; data = Store.table_digest t1 } in
  Store.add_profile s k1 (sample_profile ());
  Store.flush s;
  let s2 = Store.open_dir dir in
  let edited = mk_table "T" [ ("a", 1.0); ("b", 99.0) ] in
  let k2 = { k1 with Store.data = Store.table_digest edited } in
  Alcotest.(check bool) "edited data misses (no stale hit)" true
    (Store.find_profile s2 k2 = None);
  Alcotest.(check bool) "original key still hits" true (Store.find_profile s2 k1 <> None);
  Alcotest.(check int) "a miss is not a quarantine" 0 (Store.stats s2).Store.st_quarantined

(* --- injected I/O faults & recovery audit ------------------------------ *)

let slurp path = In_channel.with_open_bin path In_channel.input_all
let all_keys n = List.init n (fun i -> key ~table:"T" ~attr:(Printf.sprintf "a%d" i))

let probe_all s n =
  List.fold_left (fun acc k -> if Store.find_profile s k <> None then acc + 1 else acc) 0
    (all_keys n)

let test_verify_classifications () =
  in_temp_dir @@ fun dir ->
  let empty = Store.verify (Filename.concat dir "nonexistent") in
  Alcotest.(check bool) "missing dir audits healthy-empty" true
    (Store.verify_healthy empty && empty.Store.vr_entries = []);
  populate dir;
  let r = Store.verify dir in
  Alcotest.(check bool) "fresh store verifies healthy" true (Store.verify_healthy r);
  Alcotest.(check bool) "clean shards counted" true (r.Store.vr_clean > 0);
  Alcotest.(check int) "nothing damaged yet" 0
    (r.Store.vr_truncated + r.Store.vr_corrupt + r.Store.vr_quarantined + r.Store.vr_tmp);
  (* pick the two fattest shards so both certainly carry entries *)
  let by_size =
    shard_files dir
    |> List.map (fun f -> (String.length (slurp (Filename.concat dir f)), f))
    |> List.sort (fun a b -> compare b a)
    |> List.map snd
  in
  match by_size with
  | torn :: wreck :: _ ->
    (* torn: lose the tail (and with it the END footer) *)
    truncate_file (Filename.concat dir torn);
    (* wreck: keep the END footer but damage an entry line *)
    let wreck_path = Filename.concat dir wreck in
    let damaged =
      String.split_on_char '\n' (slurp wreck_path)
      |> List.mapi (fun i l -> if i = 1 then "WRECKED" else l)
      |> String.concat "\n"
    in
    Out_channel.with_open_bin wreck_path (fun oc -> Out_channel.output_string oc damaged);
    Out_channel.with_open_bin (Filename.concat dir "shard-0042.dat.tmp") (fun oc ->
        Out_channel.output_string oc "interrupted atomic write");
    Out_channel.with_open_bin (Filename.concat dir "shard-0042.dat.quarantined") (fun oc ->
        Out_channel.output_string oc "set aside long ago");
    let r2 = Store.verify dir in
    let status f =
      match List.find_opt (fun e -> e.Store.ve_file = f) r2.Store.vr_entries with
      | Some e -> Store.shard_status_name e.Store.ve_status
      | None -> "missing"
    in
    Alcotest.(check string) "lost tail classified truncated" "truncated" (status torn);
    Alcotest.(check string) "END intact but unparseable classified corrupt" "corrupt"
      (status wreck);
    Alcotest.(check int) "one truncated" 1 r2.Store.vr_truncated;
    Alcotest.(check int) "one corrupt" 1 r2.Store.vr_corrupt;
    Alcotest.(check int) "quarantined counted" 1 r2.Store.vr_quarantined;
    Alcotest.(check int) "tmp counted" 1 r2.Store.vr_tmp;
    Alcotest.(check bool) "index still ok" true r2.Store.vr_index_ok;
    Alcotest.(check bool) "damage makes the audit unhealthy" false (Store.verify_healthy r2);
    (* verify is a pure audit: re-running it mutates nothing *)
    let before = Sys.readdir dir |> Array.to_list |> List.sort compare in
    let r3 = Store.verify dir in
    Alcotest.(check int) "audit is stable" (List.length r2.Store.vr_entries)
      (List.length r3.Store.vr_entries);
    Alcotest.(check (list string)) "audit never mutates the directory" before
      (Sys.readdir dir |> Array.to_list |> List.sort compare)
  | _ -> Alcotest.fail "expected at least two shards"

(* Satellite: the END-count canary under an *injected* short write —
   the no-fsync crash model where the rename survives but the bytes
   behind it do not.  The audit must call it truncated (never silently
   garbage), recovery must quarantine-and-rebuild to a healthy store. *)
let test_torn_write_end_canary () =
  in_temp_dir @@ fun dir ->
  populate dir;
  let s = Store.open_dir dir in
  for i = 20 to 39 do
    Store.add_profile s (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)) (sample_profile ())
  done;
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  Robust.Fault.arm ~rate:1.0 ~seed:7 ~behaviour:(Robust.Fault.Torn_write 0.5)
    Robust.Fault.Store_shard_write;
  Alcotest.(check bool) "torn flush surfaces as Injected" true
    (try
       Store.flush s;
       false
     with Robust.Fault.Injected { site = Robust.Fault.Store_shard_write; _ } -> true);
  Robust.Fault.disarm_all ();
  let r = Store.verify dir in
  Alcotest.(check int) "the canary flags exactly the torn shard" 1 r.Store.vr_truncated;
  Alcotest.(check int) "torn is never misread as parseable garbage" 0 r.Store.vr_corrupt;
  Alcotest.(check bool) "audit flags the store" false (Store.verify_healthy r);
  (* recovery: reopening quarantines the torn shard and serves the rest *)
  let s2 = Store.open_dir dir in
  let found = probe_all s2 40 in
  Alcotest.(check bool) "partial service after the crash" true (found > 0 && found < 40);
  Alcotest.(check bool) "torn shard quarantined on load" true
    ((Store.stats s2).Store.st_quarantined >= 1);
  List.iter
    (fun k -> if Store.find_profile s2 k = None then Store.add_profile s2 k (sample_profile ()))
    (all_keys 40);
  Store.flush s2;
  let healed = Store.verify dir in
  Alcotest.(check bool) "healed store audits healthy" true (Store.verify_healthy healed);
  Alcotest.(check bool) "quarantined file kept for forensics" true
    (healed.Store.vr_quarantined >= 1);
  let s3 = Store.open_dir dir in
  Alcotest.(check int) "everything served after recovery" 40 (probe_all s3 40)

(* Raise at the write site fails before anything reaches the shard
   path: every old byte survives untouched, and a disarmed retry of the
   same flush completes (nothing was lost in memory either). *)
let test_write_raise_preserves_old () =
  in_temp_dir @@ fun dir ->
  populate dir;
  let baseline = shard_files dir |> List.map (fun f -> (f, slurp (Filename.concat dir f))) in
  let s = Store.open_dir dir in
  for i = 20 to 39 do
    Store.add_profile s (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)) (sample_profile ())
  done;
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  Robust.Fault.arm ~rate:1.0 ~seed:3 Robust.Fault.Store_shard_write;
  Alcotest.(check bool) "write fault surfaces as Injected" true
    (try
       Store.flush s;
       false
     with Robust.Fault.Injected { site = Robust.Fault.Store_shard_write; _ } -> true);
  Robust.Fault.disarm_all ();
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) (f ^ ": old bytes survive") text (slurp (Filename.concat dir f)))
    baseline;
  Alcotest.(check bool) "old store audits healthy" true
    (Store.verify_healthy (Store.verify dir));
  Store.flush s;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "retried flush persists everything" 40 (probe_all s2 40)

(* Failure at the rename: old contents survive, the complete new
   contents sit in a *removed* temp file — no litter, no torn state. *)
let test_rename_fault_preserves_old () =
  in_temp_dir @@ fun dir ->
  populate dir;
  let baseline = shard_files dir |> List.map (fun f -> (f, slurp (Filename.concat dir f))) in
  let s = Store.open_dir dir in
  for i = 20 to 39 do
    Store.add_profile s (key ~table:"T" ~attr:(Printf.sprintf "a%d" i)) (sample_profile ())
  done;
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  Robust.Fault.arm ~rate:1.0 ~seed:5 Robust.Fault.Store_flush_rename;
  Alcotest.(check bool) "rename fault surfaces as Injected" true
    (try
       Store.flush s;
       false
     with Robust.Fault.Injected { site = Robust.Fault.Store_flush_rename; _ } -> true);
  Robust.Fault.disarm_all ();
  List.iter
    (fun (f, text) ->
      Alcotest.(check string) (f ^ ": old bytes survive") text (slurp (Filename.concat dir f)))
    baseline;
  let r = Store.verify dir in
  Alcotest.(check int) "tmp removed on the way out" 0 r.Store.vr_tmp;
  Alcotest.(check bool) "old store audits healthy" true (Store.verify_healthy r);
  Store.flush s;
  let s2 = Store.open_dir dir in
  Alcotest.(check int) "retried flush persists everything" 40 (probe_all s2 40)

(* A read fault is a transient I/O error, not data damage: it
   propagates to the caller, the shard stays unloaded, and the same
   probe retried without the fault serves — healthy data must never be
   quarantined for a failed read attempt. *)
let test_read_fault_is_transient () =
  in_temp_dir @@ fun dir ->
  populate dir;
  let s = Store.open_dir dir in
  let k = key ~table:"T" ~attr:"a0" in
  Fun.protect ~finally:Robust.Fault.disarm_all @@ fun () ->
  Robust.Fault.arm ~rate:1.0 ~seed:1 Robust.Fault.Store_shard_read;
  Alcotest.(check bool) "read fault propagates" true
    (try
       ignore (Store.find_profile s k);
       false
     with Robust.Fault.Injected { site = Robust.Fault.Store_shard_read; _ } -> true);
  Robust.Fault.disarm_all ();
  Alcotest.(check bool) "disarmed retry serves" true (Store.find_profile s k <> None);
  Alcotest.(check int) "healthy data never quarantined" 0
    (Store.stats s).Store.st_quarantined;
  Alcotest.(check bool) "no file set aside" false
    (Sys.readdir dir |> Array.exists (fun f -> Filename.check_suffix f ".quarantined"))

(* --- end-to-end warm start --------------------------------------------- *)

let fp_match (m : Matching.Schema_match.t) =
  Printf.sprintf "%s|%s|%s|%s.%s|%s|%h" m.src_owner m.src_base m.src_attr m.tgt_table
    m.tgt_attr
    (Condition.to_string m.condition)
    m.confidence

let fingerprint (r : Ctxmatch.Context_match.result) =
  String.concat "\n"
    (List.map fp_match r.Ctxmatch.Context_match.matches
    @ List.map fp_match r.Ctxmatch.Context_match.standard)

let retail_run ?store ~jobs () =
  let params = { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 } in
  let source = Workload.Retail.source params in
  let target = Workload.Retail.target params Workload.Retail.Ryan_eyers in
  let config = { Ctxmatch.Config.default with jobs } in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target in
  Ctxmatch.Context_match.run ~config ?store ~infer ~source ~target ()

let test_warm_identical_to_cold () =
  in_temp_dir @@ fun dir ->
  let no_store = retail_run ~jobs:1 () in
  let cold_store = Store.open_dir dir in
  let cold = retail_run ~store:cold_store ~jobs:1 () in
  Store.flush cold_store;
  Alcotest.(check bool) "cold run computed something" true
    (cold.Ctxmatch.Context_match.profile_builds > 0);
  Alcotest.(check string) "store run identical to storeless run" (fingerprint no_store)
    (fingerprint cold);
  List.iter
    (fun jobs ->
      let warm_store = Store.open_dir dir in
      let warm = retail_run ~store:warm_store ~jobs () in
      Alcotest.(check string)
        (Printf.sprintf "warm jobs=%d byte-identical to cold" jobs)
        (fingerprint cold) (fingerprint warm);
      Alcotest.(check int)
        (Printf.sprintf "warm jobs=%d recomputes nothing" jobs)
        0 warm.Ctxmatch.Context_match.profile_builds;
      Alcotest.(check bool)
        (Printf.sprintf "warm jobs=%d served from the store" jobs)
        true
        ((Store.stats warm_store).Store.st_hits > 0))
    [ 1; 4 ]

let test_warm_after_quarantine_identical () =
  in_temp_dir @@ fun dir ->
  let cold_store = Store.open_dir dir in
  let cold = retail_run ~store:cold_store ~jobs:1 () in
  Store.flush cold_store;
  (* damage one shard: the run must degrade to recomputing exactly the
     quarantined entries, with identical output *)
  (match shard_files dir with
  | [] -> Alcotest.fail "no shards written"
  | f :: _ -> truncate_file (Filename.concat dir f));
  let hurt_store = Store.open_dir dir in
  let hurt = retail_run ~store:hurt_store ~jobs:1 () in
  Store.flush hurt_store;
  Alcotest.(check string) "degraded warm run identical" (fingerprint cold) (fingerprint hurt);
  Alcotest.(check bool) "quarantine surfaced as an issue" true
    (List.exists
       (fun (i : Robust.Error.t) -> Robust.Error.stage_name i.Robust.Error.stage = "store")
       hurt.Ctxmatch.Context_match.issues);
  (* the flush healed the store: next run is fully warm again *)
  let healed_store = Store.open_dir dir in
  let healed = retail_run ~store:healed_store ~jobs:1 () in
  Alcotest.(check string) "healed run identical" (fingerprint cold) (fingerprint healed);
  Alcotest.(check int) "healed run recomputes nothing" 0
    healed.Ctxmatch.Context_match.profile_builds

let () =
  Alcotest.run "ctxmatch-store"
    [
      ( "store",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "non-finite summary roundtrip" `Quick
            test_nonfinite_summary_roundtrip;
          Alcotest.test_case "truncated shard quarantined" `Quick test_truncated_shard;
          Alcotest.test_case "garbage shard quarantined" `Quick test_garbage_shard;
          Alcotest.test_case "stale format version quarantined" `Quick
            test_stale_format_version;
          Alcotest.test_case "foreign gram size quarantined" `Quick test_foreign_gram_size;
          Alcotest.test_case "negative count quarantined" `Quick test_negative_count;
          Alcotest.test_case "stale index quarantines all" `Quick
            test_stale_index_quarantines_all;
          Alcotest.test_case "readonly never writes" `Quick test_readonly_never_writes;
          Alcotest.test_case "table digest sensitivity" `Quick test_table_digest_sensitivity;
          Alcotest.test_case "data digest mismatch misses" `Quick
            test_data_digest_mismatch_misses;
          Alcotest.test_case "verify classifications" `Quick test_verify_classifications;
          Alcotest.test_case "torn write END canary" `Quick test_torn_write_end_canary;
          Alcotest.test_case "write raise preserves old" `Quick test_write_raise_preserves_old;
          Alcotest.test_case "rename fault preserves old" `Quick
            test_rename_fault_preserves_old;
          Alcotest.test_case "read fault is transient" `Quick test_read_fault_is_transient;
          Alcotest.test_case "warm identical to cold" `Slow test_warm_identical_to_cold;
          Alcotest.test_case "warm after quarantine identical" `Slow
            test_warm_after_quarantine_identical;
        ] );
    ]
