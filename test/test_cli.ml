(* End-to-end tests of the command-line interface: generate CSV/XML
   fixtures, invoke the built executable, check its output and the files
   it writes.  The exe is declared as a dune dependency of this test. *)

let cli = "../bin/ctxmatch_cli.exe"

let in_temp_dir f =
  let dir = Filename.temp_file "ctxmatch_cli" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

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

(* summary lines end with a wall-clock duration ("# ..., 0.01s"); strip
   it so byte-comparing two runs cannot flake on a rounding boundary *)
let strip_timing s =
  String.split_on_char '\n' s
  |> List.map (fun line ->
         let n = String.length line in
         if n > 0 && line.[0] = '#' && line.[n - 1] = 's' then
           match String.rindex_opt line ',' with
           | Some i -> String.sub line 0 i
           | None -> line
         else line)
  |> String.concat "\n"

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* a grades-style fixture small enough to run fast but large enough for
   contextual matching to fire *)
let grades_fixture dir =
  let rng = Stats.Rng.create 4 in
  let narrow = Buffer.create 4096 in
  Buffer.add_string narrow "name,examNum,grade\n";
  for i = 1 to 80 do
    for e = 1 to 3 do
      Buffer.add_string narrow
        (Printf.sprintf "student %03d,%d,%.2f\n" i e
           (Stats.Rng.gaussian rng ~mu:(40.0 +. (10.0 *. float_of_int (e - 1))) ~sigma:6.0))
    done
  done;
  let wide = Buffer.create 4096 in
  Buffer.add_string wide "name,grade1,grade2,grade3\n";
  for i = 1 to 80 do
    Buffer.add_string wide
      (Printf.sprintf "other %03d,%.2f,%.2f,%.2f\n" i
         (Stats.Rng.gaussian rng ~mu:40.0 ~sigma:6.0)
         (Stats.Rng.gaussian rng ~mu:50.0 ~sigma:6.0)
         (Stats.Rng.gaussian rng ~mu:60.0 ~sigma:6.0))
  done;
  write (Filename.concat dir "narrow.csv") (Buffer.contents narrow);
  write (Filename.concat dir "wide.csv") (Buffer.contents wide)

let test_match_command () =
  in_temp_dir (fun dir ->
      grades_fixture dir;
      let status, output =
        run_capture
          (Printf.sprintf "%s match -s %s/narrow.csv -t %s/wide.csv --tau 0.4 --omega 0.05 --late --select clio"
             cli dir dir)
      in
      Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "prints contextual matches" true
        (contains output "[examNum = 1]" && contains output "grade1"))

let test_map_command_writes_outputs () =
  in_temp_dir (fun dir ->
      grades_fixture dir;
      let out = Filename.concat dir "out" in
      let status, output =
        run_capture
          (Printf.sprintf
             "%s map -s %s/narrow.csv -t %s/wide.csv --tau 0.4 --omega 0.05 --late --select clio -o %s"
             cli dir dir out)
      in
      Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "reports join1" true (contains output "join1");
      Alcotest.(check bool) "sql written" true
        (Sys.file_exists (Filename.concat out "mapping.sql"));
      Alcotest.(check bool) "csv written" true
        (Sys.file_exists (Filename.concat out "wide.csv"));
      (* the mapped wide table has one row per student + header *)
      let lines =
        Relational.Csv_io.parse_file (Filename.concat out "wide.csv") |> List.length
      in
      Alcotest.(check int) "80 rows + header" 81 lines)

let test_where_filter () =
  in_temp_dir (fun dir ->
      grades_fixture dir;
      let status, output =
        run_capture
          (Printf.sprintf
             "%s match -s %s/narrow.csv -t %s/wide.csv --tau 0.4 --where \"examNum = 1\""
             cli dir dir)
      in
      Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
      (* with only exam 1 rows, grade aligns with grade1 unconditionally *)
      Alcotest.(check bool) "matches grade1" true (contains output "grade1"))

let test_demo_command () =
  let status, output = run_capture (cli ^ " demo grades") in
  Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
  Alcotest.(check bool) "perfect demo accuracy" true (contains output "Accuracy 1.000")

let test_xml_input () =
  in_temp_dir (fun dir ->
      let xml = Buffer.create 4096 in
      Buffer.add_string xml "<inventory>\n";
      let rng = Stats.Rng.create 9 in
      for i = 1 to 120 do
        let is_book = i mod 2 = 0 in
        let title =
          if is_book then (Workload.Corpus.book rng).Workload.Corpus.book_title
          else (Workload.Corpus.album rng).Workload.Corpus.album_title
        in
        Buffer.add_string xml
          (Printf.sprintf "<item><kind>%s</kind><title>%s</title></item>\n"
             (if is_book then "book" else "cd")
             title)
      done;
      Buffer.add_string xml "</inventory>\n";
      write (Filename.concat dir "inv.xml") (Buffer.contents xml);
      let books = Buffer.create 2048 in
      Buffer.add_string books "booktitle\n";
      for _ = 1 to 60 do
        Buffer.add_string books ((Workload.Corpus.book rng).Workload.Corpus.book_title ^ "\n")
      done;
      write (Filename.concat dir "books.csv") (Buffer.contents books);
      let status, output =
        run_capture
          (Printf.sprintf "%s match -s %s/inv.xml -t %s/books.csv --tau 0.3" cli dir dir)
      in
      Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "shredded title column matched" true
        (contains output "title -> books.booktitle"))

let test_observability_flags () =
  in_temp_dir (fun dir ->
      grades_fixture dir;
      let base =
        Printf.sprintf "%s match -s %s/narrow.csv -t %s/wide.csv --tau 0.4 --omega 0.05 --late --select clio"
          cli dir dir
      in
      (* plain run is the oracle: the obs flags must not change matches *)
      let status, plain = run_capture base in
      Alcotest.(check bool) "plain exit 0" true (status = Unix.WEXITED 0);
      let metrics_file = Filename.concat dir "metrics.json" in
      let trace_file = Filename.concat dir "trace.jsonl" in
      let status, instrumented =
        run_capture (Printf.sprintf "%s --metrics %s --trace %s" base metrics_file trace_file)
      in
      Alcotest.(check bool) "instrumented exit 0" true (status = Unix.WEXITED 0);
      Alcotest.(check string) "output unchanged under instrumentation"
        (strip_timing plain) (strip_timing instrumented);
      (* the span tree goes to stderr; run it separately so interleaving
         with block-buffered stdout cannot perturb the byte comparison *)
      let status, profiled = run_capture (base ^ " --profile") in
      Alcotest.(check bool) "profile exit 0" true (status = Unix.WEXITED 0);
      Alcotest.(check bool) "profile tree printed" true (contains profiled "context_match");
      let slurp path =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let metrics = slurp metrics_file in
      List.iter
        (fun field ->
          Alcotest.(check bool) ("metrics has " ^ field) true (contains metrics field))
        [ "\"spans\""; "\"pool\""; "\"utilization\""; "cache.profile.lookups" ];
      Alcotest.(check bool) "trace written" true
        (contains (slurp trace_file) "\"path\""))

(* several textual columns per side, so a candidate filter has textual
   targets to rank and prune *)
let textual_fixture dir =
  let titles = [| "war and peace"; "abbey road"; "anna karenina"; "kind of blue"; "ulysses";
                  "blue train"; "middlemarch"; "let it be" |] in
  let people = [| "leo tolstoy"; "the beatles"; "miles davis"; "james joyce"; "george eliot";
                  "john coltrane" |] in
  let houses = [| "penguin house"; "apple records"; "blue note"; "vintage press" |] in
  let inv = Buffer.create 1024 in
  Buffer.add_string inv "title,creator,publisher,status,price\n";
  for i = 0 to 11 do
    Buffer.add_string inv
      (Printf.sprintf "%s,%s,%s,%s,%d\n" titles.(i mod 8) people.(i mod 6) houses.(i mod 4)
         (if i mod 3 = 0 then "low" else "normal") (8 + i))
  done;
  let book = Buffer.create 1024 in
  Buffer.add_string book "booktitle,author,label,cost\n";
  for i = 0 to 9 do
    Buffer.add_string book
      (Printf.sprintf "%s,%s,%s,%d\n" titles.((i + 3) mod 8) people.((i + 1) mod 6)
         houses.((i + 2) mod 4) (9 + i))
  done;
  write (Filename.concat dir "inv.csv") (Buffer.contents inv);
  write (Filename.concat dir "book.csv") (Buffer.contents book)

let test_plan_flag () =
  in_temp_dir (fun dir ->
      textual_fixture dir;
      let base = Printf.sprintf "%s match -s %s/inv.csv -t %s/book.csv" cli dir dir in
      let status, plain = run_capture base in
      Alcotest.(check bool) "plain exit 0" true (status = Unix.WEXITED 0);
      (* the explicit default is the unfiltered run, byte for byte *)
      let status, explicit = run_capture (base ^ " --plan default") in
      Alcotest.(check bool) "default exit 0" true (status = Unix.WEXITED 0);
      Alcotest.(check string) "--plan default changes nothing" (strip_timing plain)
        (strip_timing explicit);
      (* a filtered run reports the filter it ran, TAU included *)
      let status, filtered = run_capture (base ^ " --plan filter:1,0.3") in
      Alcotest.(check bool) "filter exit 0" true (status = Unix.WEXITED 0);
      let summary =
        List.find_opt
          (fun line -> String.length line > 7 && String.sub line 0 7 = "# plan ")
          (String.split_on_char '\n' filtered)
      in
      (match summary with
      | Some line ->
        Alcotest.(check bool) ("summary names filter:1,0.3: " ^ line) true
          (contains line "# plan filter:1,0.3: " && contains line "pairs scored"
          && contains line "pruned")
      | None -> Alcotest.failf "no # plan summary line in:\n%s" filtered);
      (* unknown or malformed specs are usage errors naming the grammar *)
      List.iter
        (fun spec ->
          let status, output = run_capture (Printf.sprintf "%s --plan %s" base spec) in
          Alcotest.(check bool) (spec ^ ": usage exit") true (status = Unix.WEXITED 2);
          Alcotest.(check bool) (spec ^ ": names the grammar") true
            (contains output "default | filter[:K[,TAU]]"))
        [ "auto"; "filter:0" ])

(* A filtered run's metrics carry the measured kernel counters and the
   pairs accounting, and no per-matcher-class scoring-time series. *)
let test_filter_metrics () =
  in_temp_dir (fun dir ->
      textual_fixture dir;
      let metrics_file = Filename.concat dir "metrics.json" in
      let status, _ =
        run_capture
          (Printf.sprintf "%s match -s %s/inv.csv -t %s/book.csv --plan filter:1 --metrics %s" cli
             dir dir metrics_file)
      in
      Alcotest.(check bool) "exit 0" true (status = Unix.WEXITED 0);
      let ic = open_in_bin metrics_file in
      let metrics = really_input_string ic (in_channel_length ic) in
      close_in ic;
      List.iter
        (fun field ->
          Alcotest.(check bool) ("metrics has " ^ field) true (contains metrics field))
        [ "kernel.arena.bytes"; "kernel.topk.queries"; "plan.pairs_scored"; "plan.pairs_pruned" ];
      Alcotest.(check bool) "no scoring-time series" false (contains metrics "plan.score_ns"))

let test_bad_input_fails () =
  (* a nonexistent file is rejected by argument validation: usage (2) *)
  let status, _ = run_capture (cli ^ " match -s /nonexistent.csv -t /nonexistent.csv") in
  Alcotest.(check bool) "missing file: usage exit" true (status = Unix.WEXITED 2);
  in_temp_dir (fun dir ->
      write (Filename.concat dir "good.csv") "a,b\n1,2\n";
      write (Filename.concat dir "ragged.csv") "a,b\n1,2\n3\n";
      (* a malformed row is an ingestion error (3) under --strict ... *)
      let status, _ =
        run_capture (Printf.sprintf "%s match -s %s/ragged.csv -t %s/good.csv" cli dir dir)
      in
      Alcotest.(check bool) "ragged csv: ingestion exit" true (status = Unix.WEXITED 3);
      (* ... and a quarantined row (exit 0, diagnostic) under --lenient *)
      let status, output =
        run_capture
          (Printf.sprintf "%s match -s %s/ragged.csv -t %s/good.csv --lenient" cli dir dir)
      in
      Alcotest.(check bool) "lenient: degraded but successful" true
        (status = Unix.WEXITED 0);
      Alcotest.(check bool) "lenient: quarantine diagnostic" true
        (contains output "row quarantined");
      (* an unknown selection policy is a usage error (2) *)
      let status, _ =
        run_capture
          (Printf.sprintf "%s match -s %s/good.csv -t %s/good.csv --select bogus" cli dir dir)
      in
      Alcotest.(check bool) "bad policy: usage exit" true (status = Unix.WEXITED 2))

let suite =
  [
    Alcotest.test_case "match command" `Slow test_match_command;
    Alcotest.test_case "map writes csv + sql" `Slow test_map_command_writes_outputs;
    Alcotest.test_case "--where filter" `Slow test_where_filter;
    Alcotest.test_case "demo grades" `Slow test_demo_command;
    Alcotest.test_case "xml input" `Slow test_xml_input;
    Alcotest.test_case "observability flags" `Slow test_observability_flags;
    Alcotest.test_case "--plan flag" `Slow test_plan_flag;
    Alcotest.test_case "filter metrics" `Slow test_filter_metrics;
    Alcotest.test_case "bad input fails" `Quick test_bad_input_fails;
  ]
