(* Serve-daemon suite.

   The central claim the daemon makes (DESIGN.md, "Serving") is that a
   served match is the SAME computation as a one-shot run: a registered
   prepared target plus a request's source sample produce byte-identical
   matches and issue payloads to `ctxmatch match` over the same inputs.
   The differential tests here hold the daemon to that claim, across
   jobs values, kernel on/off, warm vs cold stores, lenient-ingest
   quarantine and injected faults.  The rest of the suite covers what a
   daemon additionally owes its callers: surviving malformed input,
   bounded queues under concurrency, per-request deadlines that include
   queue wait, and a drain-then-flush shutdown. *)

let cli = "../../bin/ctxmatch_cli.exe"

let in_temp_dir f =
  let dir = Filename.temp_file "ctxserve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

(* --- fixture: the retail workload, as CSV payloads --------------------- *)

let retail_params =
  { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 }

let source_db = Workload.Retail.source retail_params
let target_db = Workload.Retail.target retail_params Workload.Retail.Ryan_eyers

let csv_payload db =
  List.map
    (fun table -> (Relational.Table.name table, Relational.Csv_io.table_to_csv table))
    (Relational.Database.tables db)

let source_payload = csv_payload source_db
let target_payload = csv_payload target_db

(* The one-shot oracle the daemon must agree with, byte for byte.  Runs
   strictly sequentially with the daemon idle: Runtime.Pool accepts
   batches from one submitter at a time, and inside the daemon that
   submitter is its executor thread. *)
let oracle ?(jobs = 1) ?(kernel = true) ?(faults = []) ?timeout_ms () =
  let config = { Ctxmatch.Config.default with jobs; kernel; faults; timeout_ms } in
  let infer = Ctxmatch.Context_match.infer_of `Src_class ~target:target_db in
  Ctxmatch.Context_match.run ~config ~infer ~source:source_db ~target:target_db ()

let oracle_strings (r : Ctxmatch.Context_match.result) =
  ( List.map Matching.Schema_match.to_string r.Ctxmatch.Context_match.matches,
    List.map Robust.Error.to_string r.Ctxmatch.Context_match.issues )

(* --- in-process server helpers ----------------------------------------- *)

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

let connect address = Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 address

let with_client address f =
  let client = connect address in
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

let int_field json name =
  match Serve.Json.to_int (expect_field json name) with
  | Some i -> i
  | None -> Alcotest.failf "field %S is not an int" name

let register client ?(name = "retail") ?(tables = target_payload) () =
  let reply = Serve.Client.request client (Serve.Protocol.register_json ~name tables) in
  expect_ok reply;
  reply

let do_match client ?tau ?omega ?late ?select ?algorithm ?seed ?jobs ?timeout_ms ?kernel
    ?lenient ?faults ?(target = "retail") ?(tables = source_payload) () =
  Serve.Client.request client
    (Serve.Protocol.match_json ?tau ?omega ?late ?select ?algorithm ?seed ?jobs ?timeout_ms
       ?kernel ?lenient ?faults ~target tables)

(* --- differential identity --------------------------------------------- *)

(* Daemon vs one-shot across jobs x kernel: matches AND issues compare
   as the exact strings the one-shot CLI prints. *)
let test_differential_identity () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  List.iter
    (fun kernel ->
      let want_matches, want_issues = oracle_strings (oracle ~kernel ()) in
      Alcotest.(check bool) "oracle found matches" true (want_matches <> []);
      List.iter
        (fun jobs ->
          let reply = do_match client ~jobs ~kernel () in
          expect_ok reply;
          Alcotest.(check (list string))
            (Printf.sprintf "matches identical (jobs=%d kernel=%b)" jobs kernel)
            want_matches (string_list reply "matches");
          Alcotest.(check (list string))
            (Printf.sprintf "issues identical (jobs=%d kernel=%b)" jobs kernel)
            want_issues (string_list reply "issues"))
        [ 1; 2; Domain.recommended_domain_count () ])
    [ true; false ]

(* A "jobs" value past the runtime's domain limit fails only its own
   request: the next multi-domain match is served, and served right. *)
let test_oversized_jobs () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  let want, _ = oracle_strings (oracle ()) in
  expect_reject ~code:"internal" (do_match client ~jobs:200 ());
  let reply = do_match client ~jobs:2 () in
  expect_ok reply;
  Alcotest.(check (list string)) "jobs 2 after jobs 200 = one-shot" want
    (string_list reply "matches")

(* A shared prepared target must not leak state between requests with
   different knobs: flip tau up (fewer matches) and back, same client,
   same registration. *)
let test_knobs_do_not_stick () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  let base, _ = oracle_strings (oracle ()) in
  let strict_reply = do_match client ~tau:0.95 ~omega:0.9 () in
  expect_ok strict_reply;
  let reply = do_match client () in
  expect_ok reply;
  Alcotest.(check (list string)) "defaults unaffected by a prior strict request" base
    (string_list reply "matches")

(* Issue payloads: lenient ingest quarantine rides back on the reply
   exactly as Csv_io reports it, and injected faults degrade the served
   result identically to the one-shot run. *)
let test_issue_payload_identity () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  (* fault-injected differential *)
  let faults = [ { Robust.Fault.site = Robust.Fault.Matcher_score; rate = 0.35; seed = 1 } ] in
  let want_matches, want_issues = oracle_strings (oracle ~faults ()) in
  Alcotest.(check bool) "faults actually fired" true (want_issues <> []);
  let reply = do_match client ~faults () in
  expect_ok reply;
  Alcotest.(check (list string)) "degraded matches identical" want_matches
    (string_list reply "matches");
  Alcotest.(check (list string)) "fault issues identical" want_issues
    (string_list reply "issues");
  (* lenient-ingest differential: same quarantine lines as Csv_io *)
  let name, csv = List.hd source_payload in
  let mangled =
    (* corrupt one mid-file record into a field-count mismatch *)
    let lines = String.split_on_char '\n' csv in
    String.concat "\n"
      (List.mapi (fun i line -> if i = 3 then line ^ ",stray,fields" else line) lines)
  in
  let _, want_ingest =
    Relational.Csv_io.table_of_csv_report ~mode:Relational.Csv_io.Lenient ~name mangled
  in
  Alcotest.(check bool) "mangling quarantined something" true (want_ingest <> []);
  let reply = do_match client ~lenient:true ~tables:[ (name, mangled) ] () in
  expect_ok reply;
  Alcotest.(check (list string)) "ingest issue payloads identical"
    (List.map Robust.Error.to_string want_ingest)
    (string_list reply "ingest_issues");
  (* clean rate-0 arming is a perfect no-op *)
  let clean, _ = oracle_strings (oracle ()) in
  let reply =
    do_match client
      ~faults:[ { Robust.Fault.site = Robust.Fault.Matcher_score; rate = 0.0; seed = 1 } ]
      ()
  in
  expect_ok reply;
  Alcotest.(check (list string)) "rate 0.0 arming = unarmed" clean (string_list reply "matches")

(* Warm vs cold: daemon A populates a store and drains; daemon B over
   the same directory serves identical matches without rebuilding a
   single profile. *)
let test_warm_store_identity () =
  in_temp_dir @@ fun dir ->
  let store_dir = Filename.concat dir "store" in
  let serve_once f =
    with_server dir
      ~configure:(fun c -> { c with Serve.Server.store_dir = Some store_dir })
      (fun server address ->
        with_client address @@ fun client ->
        ignore (register client ());
        let reply = do_match client () in
        expect_ok reply;
        ignore server;
        f reply)
  in
  let want, _ = oracle_strings (oracle ()) in
  let cold_builds = serve_once (fun reply -> int_field reply "profile_builds") in
  Alcotest.(check bool) "cold daemon built profiles" true (cold_builds > 0);
  let warm_matches, warm_builds =
    serve_once (fun reply -> (string_list reply "matches", int_field reply "profile_builds"))
  in
  Alcotest.(check (list string)) "warm daemon matches identical" want warm_matches;
  Alcotest.(check int) "warm daemon rebuilt nothing" 0 warm_builds

(* --- protocol robustness ------------------------------------------------ *)

(* Every malformed request gets a structured reject on the same
   connection, and the daemon keeps serving afterwards. *)
let test_protocol_robustness () =
  in_temp_dir @@ fun dir ->
  with_server dir
    ~configure:(fun c -> { c with Serve.Server.max_request_bytes = 4096 })
  @@ fun server address ->
  with_client address @@ fun client ->
  let req line = Serve.Json.parse (Serve.Client.request_line client line) in
  expect_reject ~code:"invalid-json" (req "this is not json");
  expect_reject ~code:"invalid-json" (req "{\"cmd\":\"ping\"");
  expect_reject ~code:"bad-request" (req "[1,2,3]");
  expect_reject ~code:"bad-request" (req "{\"nocmd\":true}");
  expect_reject ~code:"bad-request" (req "{\"cmd\":\"match\"}");
  expect_reject ~code:"bad-request" (req "{\"cmd\":\"match\",\"target\":\"t\",\"tables\":[]}");
  expect_reject ~code:"bad-request"
    (req "{\"cmd\":\"match\",\"target\":\"t\",\"tables\":[{\"name\":\"a\",\"csv\":\"x\"}],\"tau\":\"high\"}");
  expect_reject ~code:"unknown-command" (req "{\"cmd\":\"frobnicate\"}");
  expect_reject ~code:"unknown-target"
    (req "{\"cmd\":\"match\",\"target\":\"nope\",\"tables\":[{\"name\":\"a\",\"csv\":\"h\\n1\"}]}");
  expect_reject ~code:"bad-request"
    (req
       "{\"cmd\":\"match\",\"target\":\"t\",\"tables\":[{\"name\":\"a\",\"csv\":\"h\\n1\"}],\"faults\":[{\"site\":\"warp-core\"}]}");
  (* strict-mode CSV failure is an ingest reject, not a dead daemon *)
  expect_reject ~code:"ingest"
    (req "{\"cmd\":\"register-target\",\"name\":\"bad\",\"tables\":[{\"name\":\"a\",\"csv\":\"h1,h2\\nonly-one\"}]}");
  (* payloads that cannot become a table or a database: an unreadable
     table is an ingest reject, two tables of one name a bad request,
     and the connection keeps serving after each *)
  let errors () = (Serve.Server.counters server).Serve.Server.c_protocol_errors in
  let before = errors () in
  let payloads =
    [
      ("ingest", "{\"cmd\":\"register-target\",\"name\":\"bad\",\"tables\":[{\"name\":\"a\",\"csv\":\"\"}]}");
      ("ingest", "{\"cmd\":\"match\",\"target\":\"t\",\"tables\":[{\"name\":\"a\",\"csv\":\"\"}]}");
      ( "bad-request",
        "{\"cmd\":\"register-target\",\"name\":\"bad\",\"tables\":[{\"name\":\"a\",\"csv\":\"h\\n1\"},{\"name\":\"a\",\"csv\":\"h\\n2\"}]}" );
      ( "bad-request",
        "{\"cmd\":\"match\",\"target\":\"t\",\"tables\":[{\"name\":\"a\",\"csv\":\"h\\n1\"},{\"name\":\"a\",\"csv\":\"h\\n2\"}]}" );
      ("ingest", "{\"cmd\":\"register-target\",\"name\":\"bad\",\"tables\":[{\"name\":\"a\",\"csv\":\"x,x\\n1,2\"}]}");
      ( "ingest",
        "{\"cmd\":\"match\",\"target\":\"t\",\"lenient\":true,\"tables\":[{\"name\":\"a\",\"csv\":\"x,x\\n1,2\"}]}" );
    ]
  in
  List.iter
    (fun (code, line) ->
      expect_reject ~code (req line);
      expect_ok (Serve.Client.request client Serve.Protocol.ping_json))
    payloads;
  Alcotest.(check int) "each payload reject counted as a protocol error"
    (List.length payloads) (errors () - before);
  (* oversized line: rejected, discarded, connection still usable *)
  let big = String.make 8192 'x' in
  expect_reject ~code:"oversized" (req ("{\"cmd\":\"ping\",\"pad\":\"" ^ big ^ "\"}"));
  (* a line split across writes reassembles into one request *)
  Serve.Client.send_raw client "{\"cmd\":";
  Thread.delay 0.05;
  Serve.Client.send_raw client "\"ping\"}\n";
  expect_ok (Serve.Json.parse (Serve.Client.read_reply client));
  (* after all that abuse: still alive and still serving (a tiny
     fixture — this server caps requests at 4 KiB; full-payload
     identity is the differential suite's job) *)
  let tiny = [ ("t", "a,b\n1,x\n2,y\n") ] in
  ignore (register client ~name:"tiny" ~tables:tiny ());
  let reply = do_match client ~target:"tiny" ~tables:tiny () in
  expect_ok reply;
  ignore (string_list reply "matches");
  let c = Serve.Server.counters server in
  Alcotest.(check bool) "protocol errors were counted" true
    (c.Serve.Server.c_protocol_errors >= 17)

(* A client that vanishes mid-request (truncated line, no newline, then
   hard close) must not wedge or kill the daemon. *)
let test_truncated_then_disconnect () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  let client = connect address in
  Serve.Client.send_raw client "{\"cmd\":\"ping\"";
  Serve.Client.close client;
  with_client address @@ fun client2 ->
  expect_ok (Serve.Client.request client2 Serve.Protocol.ping_json)

(* --- deadlines ---------------------------------------------------------- *)

let test_deadlines () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  (* an already-expired admission deadline: rejected before execution,
     queue wait counted against the budget *)
  expect_reject ~code:"timeout" (do_match client ~timeout_ms:0 ());
  (* a generous one: unaffected *)
  let want, _ = oracle_strings (oracle ()) in
  let reply = do_match client ~timeout_ms:600_000 () in
  expect_ok reply;
  Alcotest.(check (list string)) "matches under a generous deadline" want
    (string_list reply "matches")

(* --- admission control -------------------------------------------------- *)

(* queue_capacity 0 turns every admission into a deterministic "busy":
   the backpressure path without scheduling races. *)
let test_backpressure_rejects () =
  in_temp_dir @@ fun dir ->
  with_server dir ~configure:(fun c -> { c with Serve.Server.queue_capacity = 0 })
  @@ fun server address ->
  with_client address @@ fun client ->
  expect_reject ~code:"busy" (do_match client ());
  expect_ok (Serve.Client.request client Serve.Protocol.ping_json);
  let c = Serve.Server.counters server in
  Alcotest.(check int) "rejection counted" 1 c.Serve.Server.c_rejected;
  Alcotest.(check int) "nothing admitted" 0 c.Serve.Server.c_accepted

(* --- concurrency soak --------------------------------------------------- *)

(* N client threads x M requests with randomized pacing, jobs and knobs
   per request.  Every reply must be ok and byte-identical to its
   oracle; afterwards the daemon's books must balance exactly:
   accepted = completed (monotone completion, nothing lost, nothing
   executed twice), queue drained, nothing in flight. *)
let test_concurrency_soak () =
  in_temp_dir @@ fun dir ->
  with_server dir ~configure:(fun c -> { c with Serve.Server.queue_capacity = 256 })
  @@ fun server address ->
  (* oracles first, daemon idle: two knob profiles exercised by the soak *)
  let want_default, _ = oracle_strings (oracle ()) in
  let want_strict, _ = oracle_strings (oracle ()) in
  ignore want_strict;
  let want_tau95, _ =
    let config = { Ctxmatch.Config.default with tau = 0.95; omega = 0.9; jobs = 1 } in
    let infer = Ctxmatch.Context_match.infer_of `Src_class ~target:target_db in
    let r = Ctxmatch.Context_match.run ~config ~infer ~source:source_db ~target:target_db () in
    oracle_strings r
  in
  with_client address (fun c -> ignore (register c ()));
  let clients = 6 and per_client = 4 in
  let failures = Queue.create () in
  let fm = Mutex.create () in
  let worker k =
    let rng = Stats.Rng.create (1000 + k) in
    with_client address @@ fun client ->
    for i = 1 to per_client do
      Thread.delay (Stats.Rng.float rng 0.01);
      let strict = Stats.Rng.float rng 1.0 < 0.3 in
      let jobs = if Stats.Rng.float rng 1.0 < 0.5 then 1 else 2 in
      let reply =
        if strict then do_match client ~tau:0.95 ~omega:0.9 ~jobs ()
        else do_match client ~jobs ()
      in
      let want = if strict then want_tau95 else want_default in
      let got = try Ok (string_list reply "matches") with e -> Error e in
      (match got with
      | Ok matches when matches = want -> ()
      | Ok matches ->
        Mutex.lock fm;
        Queue.add
          (Printf.sprintf "client %d req %d: %d matches, wanted %d" k i (List.length matches)
             (List.length want))
          failures;
        Mutex.unlock fm
      | Error e ->
        Mutex.lock fm;
        Queue.add
          (Printf.sprintf "client %d req %d: %s on %s" k i (Printexc.to_string e)
             (Serve.Json.to_string reply))
          failures;
        Mutex.unlock fm)
    done
  in
  let threads = List.init clients (fun k -> Thread.create worker k) in
  List.iter Thread.join threads;
  Alcotest.(check (list string)) "no soak failures" [] (List.of_seq (Queue.to_seq failures));
  let c = Serve.Server.counters server in
  Alcotest.(check int) "all requests admitted (register + soak)"
    ((clients * per_client) + 1)
    c.Serve.Server.c_accepted;
  Alcotest.(check int) "accepted = completed" c.Serve.Server.c_accepted
    c.Serve.Server.c_completed;
  Alcotest.(check int) "queue drained" 0 c.Serve.Server.c_queue_depth;
  Alcotest.(check int) "nothing in flight" 0 c.Serve.Server.c_inflight;
  Alcotest.(check int) "no rejects at capacity 256" 0 c.Serve.Server.c_rejected

(* --- stats & obs -------------------------------------------------------- *)

let test_stats_request () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  expect_ok (do_match client ());
  let reply = Serve.Client.request client Serve.Protocol.stats_json in
  expect_ok reply;
  let stats = expect_field reply "stats" in
  Alcotest.(check int) "completed" 2 (int_field stats "completed");
  Alcotest.(check int) "rejected" 0 (int_field stats "rejected");
  Alcotest.(check int) "targets" 1 (int_field stats "targets");
  Alcotest.(check (list string)) "target names" [ "retail" ] (string_list reply "targets")

(* Obs metrics: with the recorder on, the daemon's counters must be
   consistent with its own books — and, like every other recorder
   consumer, invariant across the jobs knob. *)
let test_obs_metrics () =
  in_temp_dir @@ fun dir ->
  let run_with ~jobs =
    Obs.Recorder.enable ();
    Fun.protect ~finally:Obs.Recorder.disable @@ fun () ->
    with_server dir @@ fun _server address ->
    with_client address @@ fun client ->
    ignore (register client ());
    expect_ok (do_match client ~jobs ());
    expect_reject ~code:"timeout" (do_match client ~timeout_ms:0 ());
    let snap = Obs.Metrics.snapshot () in
    Obs.Metrics.reset ();
    ( Obs.Metrics.counter_value snap "serve.requests",
      Obs.Metrics.counter_value snap "serve.accepted",
      Obs.Metrics.counter_value snap "serve.completed",
      Obs.Metrics.counter_value snap "serve.rejected" )
  in
  let at1 = run_with ~jobs:1 in
  let at4 = run_with ~jobs:4 in
  Alcotest.(check (list int)) "recorder counters (requests, accepted, completed, rejected)"
    [ 3; 3; 3; 1 ]
    (let a, b, c, d = at1 in
     [ a; b; c; d ]);
  Alcotest.(check bool) "obs counters jobs-invariant" true (at1 = at4)

(* --- supervision: health & the circuit breaker -------------------------- *)

let health client = Serve.Client.request client Serve.Protocol.health_json

let breaker_of reply target =
  match Serve.Json.to_list_opt (expect_field reply "breakers") with
  | None -> Alcotest.fail "breakers is not a list"
  | Some l -> (
    match
      List.find_opt
        (fun b ->
          Serve.Json.to_string_opt (expect_field b "target") = Some target)
        l
    with
    | Some b -> b
    | None -> Alcotest.failf "no breaker for target %S" target)

let health_status reply =
  match Serve.Json.to_string_opt (expect_field reply "status") with
  | Some s -> s
  | None -> Alcotest.fail "health status is not a string"

let breaker_state b =
  match Serve.Json.to_string_opt (expect_field b "state") with
  | Some s -> s
  | None -> Alcotest.fail "breaker state is not a string"

(* A fresh daemon with a registered target reports healthy with a
   closed breaker; the payload carries the supervision evidence. *)
let test_health_request () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  expect_ok (do_match client ());
  let reply = health client in
  expect_ok reply;
  Alcotest.(check string) "healthy" "healthy" (health_status reply);
  let b = breaker_of reply "retail" in
  Alcotest.(check string) "breaker closed" "closed" (breaker_state b);
  Alcotest.(check int) "no failures" 0 (int_field b "failures");
  Alcotest.(check int) "no trips" 0 (int_field b "trips");
  let store = expect_field reply "store" in
  Alcotest.(check int) "no quarantines" 0 (int_field store "quarantined");
  Alcotest.(check int) "no flush failures" 0 (int_field store "flush_failures");
  Alcotest.(check int) "completed counted" 2 (int_field reply "completed")

(* The full breaker lifecycle: repeated total scoring failures trip it
   (structured degraded rejects while open), the cooldown admits a
   half-open trial, a failing trial re-opens, a succeeding one closes —
   and after recovery the serve answers are byte-identical to the
   oracle again. *)
let test_breaker_lifecycle () =
  in_temp_dir @@ fun dir ->
  let cooldown_ms = 600 in
  with_server dir
    ~configure:(fun c ->
      { c with Serve.Server.breaker_threshold = 2; breaker_cooldown_ms = cooldown_ms })
  @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  (* every source attribute quarantined: an ok reply, but empty —
     that is the breaker's "total scoring failure" signal *)
  let wreck = [ { Robust.Fault.site = Robust.Fault.Matcher_score; rate = 1.0; seed = 0 } ] in
  let wrecked = do_match client ~faults:wreck () in
  expect_ok wrecked;
  Alcotest.(check (list string)) "wrecked run matches nothing" []
    (string_list wrecked "matches");
  Alcotest.(check bool) "wrecked run carries issues" true
    (string_list wrecked "issues" <> []);
  let h = health client in
  Alcotest.(check string) "one failure: still closed" "closed"
    (breaker_state (breaker_of h "retail"));
  expect_ok (do_match client ~faults:wreck ());
  (* threshold 2 reached: open — clean requests are rejected without
     being scored, and health says degraded *)
  expect_reject ~code:"degraded" (do_match client ());
  let h = health client in
  Alcotest.(check string) "degraded while open" "degraded" (health_status h);
  let b = breaker_of h "retail" in
  Alcotest.(check string) "breaker open" "open" (breaker_state b);
  Alcotest.(check int) "one trip" 1 (int_field b "trips");
  (* cooldown, then a FAILING half-open trial: straight back to open *)
  Thread.delay (float_of_int cooldown_ms /. 1000.0 +. 0.2);
  expect_ok (do_match client ~faults:wreck ());
  expect_reject ~code:"degraded" (do_match client ());
  Alcotest.(check int) "re-tripped" 2 (int_field (breaker_of (health client) "retail") "trips");
  (* cooldown, then a SUCCEEDING trial: closed, healthy, and the
     served answer is the oracle's again *)
  Thread.delay (float_of_int cooldown_ms /. 1000.0 +. 0.2);
  let want, _ = oracle_strings (oracle ()) in
  let reply = do_match client () in
  expect_ok reply;
  Alcotest.(check (list string)) "recovered answers identical" want
    (string_list reply "matches");
  let h = health client in
  Alcotest.(check string) "healthy after recovery" "healthy" (health_status h);
  let b = breaker_of h "retail" in
  Alcotest.(check string) "breaker closed again" "closed" (breaker_state b);
  Alcotest.(check int) "failures reset" 0 (int_field b "failures");
  Alcotest.(check int) "trips are history" 2 (int_field b "trips");
  (* deadline expiry must NOT count as a breaker failure *)
  expect_reject ~code:"timeout" (do_match client ~timeout_ms:0 ());
  Alcotest.(check string) "timeout leaves the breaker closed" "closed"
    (breaker_state (breaker_of (health client) "retail"))

(* Re-registering a target replaces its breaker: an operator's way to
   reset supervision state after fixing the underlying cause. *)
let test_reregister_resets_breaker () =
  in_temp_dir @@ fun dir ->
  with_server dir
    ~configure:(fun c ->
      { c with Serve.Server.breaker_threshold = 1; breaker_cooldown_ms = 3_600_000 })
  @@ fun _server address ->
  with_client address @@ fun client ->
  ignore (register client ());
  let wreck = [ { Robust.Fault.site = Robust.Fault.Matcher_score; rate = 1.0; seed = 0 } ] in
  expect_ok (do_match client ~faults:wreck ());
  expect_reject ~code:"degraded" (do_match client ());
  ignore (register client ());
  let reply = do_match client () in
  expect_ok reply;
  Alcotest.(check string) "fresh breaker closed" "closed"
    (breaker_state (breaker_of (health client) "retail"))

(* --- graceful shutdown -------------------------------------------------- *)

(* In-process: a shutdown request drains, the run thread returns, the
   socket file disappears, and the admission path refuses late work. *)
let test_shutdown_drains () =
  in_temp_dir @@ fun dir ->
  let path = fresh_socket dir in
  let address = Serve.Server.Unix_sock path in
  let server = Serve.Server.create (Serve.Server.default_config address) in
  let thread = Serve.Server.start server in
  with_client address (fun client ->
      ignore (register client ());
      expect_ok (do_match client ());
      let reply = Serve.Client.request client Serve.Protocol.shutdown_json in
      expect_ok reply);
  Thread.join thread;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path);
  let c = Serve.Server.counters server in
  Alcotest.(check int) "drained: accepted = completed" c.Serve.Server.c_accepted
    c.Serve.Server.c_completed

(* A second daemon on a LIVE socket must refuse to start; a STALE
   socket file (dead daemon) must be reclaimed. *)
let test_bind_conflict_and_stale_reclaim () =
  in_temp_dir @@ fun dir ->
  let path = fresh_socket dir in
  let address = Serve.Server.Unix_sock path in
  with_server dir ~configure:(fun c -> { c with Serve.Server.address }) (fun _server _address ->
      match Serve.Server.create (Serve.Server.default_config address) with
      | _ -> Alcotest.fail "second daemon bound a live socket"
      | exception Serve.Server.Bind_error _ -> ());
  (* leave a stale socket file behind, as a crashed daemon would *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.close fd;
  Alcotest.(check bool) "stale socket file exists" true (Sys.file_exists path);
  with_server dir ~configure:(fun c -> { c with Serve.Server.address }) (fun _server _address ->
      with_client address (fun client ->
          expect_ok (Serve.Client.request client Serve.Protocol.ping_json)))

(* --- the real executable: signals and exit codes ------------------------ *)

let run_capture cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 1024 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  (status, Buffer.contents buf)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* SIGTERM to the real `ctxmatch serve`: drains, prints its summary,
   exits 0.  SIGINT likewise. *)
let test_sigterm_drains () =
  List.iter
    (fun signal ->
      in_temp_dir @@ fun dir ->
      let path = Filename.concat dir "d.sock" in
      let log = Filename.concat dir "serve.log" in
      let pid =
        Unix.create_process "sh"
          [|
            "sh"; "-c"; Printf.sprintf "exec %s serve --socket %s > %s 2>&1" cli path log;
          |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      let address = Serve.Server.Unix_sock path in
      with_client address (fun client ->
          expect_ok (Serve.Client.request client Serve.Protocol.ping_json));
      Unix.kill pid signal;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool)
        (Printf.sprintf "signal %d: clean exit" signal)
        true
        (status = Unix.WEXITED 0);
      let ic = open_in log in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      Alcotest.(check bool) "drain summary printed" true (contains text "# drained:");
      Alcotest.(check bool) "socket removed" false (Sys.file_exists path))
    [ Sys.sigterm; Sys.sigint ]

(* Bind failure through the executable: exit code 5 with a one-line
   diagnostic, per the CLI's error-code taxonomy. *)
let test_bind_failure_exit_code () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  let path = match address with Serve.Server.Unix_sock p -> p | _ -> assert false in
  let status, output = run_capture (Printf.sprintf "%s serve --socket %s" cli path) in
  Alcotest.(check bool) "exit code 5" true (status = Unix.WEXITED 5);
  Alcotest.(check bool) "diagnostic mentions the address" true (contains output path)

(* Mutually-exclusive/missing address flags: usage error, exit 2. *)
let test_address_usage_errors () =
  let status, _ = run_capture (Printf.sprintf "%s serve" cli) in
  Alcotest.(check bool) "no address: exit 2" true (status = Unix.WEXITED 2);
  let status, _ = run_capture (Printf.sprintf "%s serve --socket /tmp/x --port 1234" cli) in
  Alcotest.(check bool) "both addresses: exit 2" true (status = Unix.WEXITED 2)

(* `ctxmatch client` one-off commands against a served daemon. *)
let test_cli_client_roundtrip () =
  in_temp_dir @@ fun dir ->
  with_server dir @@ fun _server address ->
  let path = match address with Serve.Server.Unix_sock p -> p | _ -> assert false in
  let status, output = run_capture (Printf.sprintf "%s client --socket %s ping" cli path) in
  Alcotest.(check bool) "client ping exits 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "pong" true (contains output "\"pong\":true");
  let status, output = run_capture (Printf.sprintf "%s client --socket %s stats" cli path) in
  Alcotest.(check bool) "client stats exits 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "stats payload" true (contains output "\"queue_capacity\"")

let () =
  (* a broken pipe from a disconnecting test client must not kill the
     test binary either *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Random.self_init ();
  Alcotest.run "serve"
    [
      ( "differential",
        [
          Alcotest.test_case "daemon = one-shot across jobs x kernel" `Slow
            test_differential_identity;
          Alcotest.test_case "knobs do not stick to the prepared target" `Quick
            test_knobs_do_not_stick;
          Alcotest.test_case "oversized jobs fails only its request" `Quick
            test_oversized_jobs;
          Alcotest.test_case "issue payloads identical (faults, lenient ingest)" `Slow
            test_issue_payload_identity;
          Alcotest.test_case "warm store: identical matches, zero rebuilds" `Slow
            test_warm_store_identity;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "malformed requests get structured rejects" `Quick
            test_protocol_robustness;
          Alcotest.test_case "truncated line + disconnect" `Quick test_truncated_then_disconnect;
          Alcotest.test_case "per-request deadlines include queue wait" `Quick test_deadlines;
          Alcotest.test_case "bounded queue rejects when full" `Quick test_backpressure_rejects;
          Alcotest.test_case "stats request" `Quick test_stats_request;
          Alcotest.test_case "obs counters consistent and jobs-invariant" `Slow test_obs_metrics;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "health request" `Quick test_health_request;
          Alcotest.test_case "breaker trips, rejects degraded, recovers" `Slow
            test_breaker_lifecycle;
          Alcotest.test_case "re-register resets the breaker" `Quick
            test_reregister_resets_breaker;
        ] );
      ( "soak",
        [ Alcotest.test_case "concurrent clients, randomized knobs" `Slow test_concurrency_soak ] );
      ( "lifecycle",
        [
          Alcotest.test_case "shutdown request drains and cleans up" `Quick test_shutdown_drains;
          Alcotest.test_case "live socket refused, stale socket reclaimed" `Quick
            test_bind_conflict_and_stale_reclaim;
          Alcotest.test_case "SIGTERM/SIGINT drain the real daemon" `Quick test_sigterm_drains;
          Alcotest.test_case "bind failure exits 5" `Quick test_bind_failure_exit_code;
          Alcotest.test_case "address flag usage errors exit 2" `Quick test_address_usage_errors;
          Alcotest.test_case "ctxmatch client one-off commands" `Quick test_cli_client_roundtrip;
        ] );
    ]
