(* The serve-mixed workload: a `ctxmatch serve` subprocess over a Unix
   socket, driven by an open-loop generator.

   Set-up primes a profile store with one daemon, then restarts the
   daemon over that warm store [setup_rounds] times; set-up time runs
   from spawning a daemon until its register-target is acknowledged.
   The last daemon is measured: requests go out on one pipelined
   connection at a fixed rate, sent by this thread and read back by one
   reader thread, and each latency counts from the time the request was
   due, so a stall also charges the requests queued behind it.  Every
   [update_every]-th request is an update-target delta that alternately
   appends k copied rows to the Book table and deletes those same rows,
   so the target flips between two states whose one-shot oracles are
   computed before timing.  A second connection samples the daemon's
   stats while the sender waits for the next due time. *)

open Relational

let jobs = Batch.jobs
let rate = 15.0  (* requests per second, about half of closed-loop capacity *)
let update_every = 10
(* distinct match payloads in rotation: more of them average out how
   much one seed's sources happen to cost *)
let sources = 8
let limit_ms = 250.0
let floor = 0.75  (* F-measure below this is a wrong result *)
let flush_every = 4
let setup_rounds = 5

let params ~seed = { Workload.Retail.rows = 200; target_rows = 200; gamma = 4; seed }
let delta_table = "Book"

let now = Robust.Deadline.now_ns
let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6

let json_of_value = function
  | Value.Null -> Serve.Json.Null
  | Value.Int i -> Serve.Json.Int i
  | Value.Float f -> Serve.Json.Float f
  | Value.String s -> Serve.Json.String s
  | Value.Bool b -> Serve.Json.Bool b

type kind = Match of int  (** source index *) | Append | Delete

(* Request [i] of the schedule and the target state it observes: state
   A (as registered) after an even number of updates, B after an odd
   one.  Per-connection requests execute strictly in order, so the
   state is known exactly. *)
let kind_of i =
  if (i + 1) mod update_every = 0 then if i / update_every mod 2 = 0 then Append else Delete
  else Match (i mod sources)

let state_b_before i = i / update_every mod 2 = 1

type inputs = {
  target : Pipeline.tables;
  sources : Pipeline.tables array;
  match_lines : string array;
  append_line : string;
  delete_line : string;
  delta_rows : int;  (** k *)
  base_rows : int;  (** rows of the delta table in state A *)
  oracle_a : string list array;  (** served match strings per source, state A *)
  oracle_b : string list array;
  config : Ctxmatch.Config.t;
  fmeasure : float;
  target_a : Database.t;
  append_delta : Delta.t;
  delete_delta : Delta.t;
}

let config ~seed = { Ctxmatch.Config.default with Ctxmatch.Config.jobs; seed }

let inputs ~seed =
  let params = params ~seed in
  let target = Pipeline.csv_of (Workload.Retail.target params Workload.Retail.Ryan_eyers) in
  let sources =
    Array.init sources (fun i ->
        Pipeline.csv_of (Workload.Retail.source { params with seed = (seed * 16) + i }))
  in
  let config = config ~seed in
  let match_lines =
    Array.map
      (fun tables ->
        Serve.Json.to_string
          (Serve.Protocol.match_json ~seed ~jobs ~algorithm:"src" ~target:"retail" tables))
      sources
  in
  (* the oracle sees what the daemon sees: the CSV text, parsed *)
  let target_a = Pipeline.parse "target" target in
  let book = Database.table target_a delta_table in
  let base_rows = Table.row_count book in
  let appended, append_delta, delete_delta = Pipeline.flip_deltas target_a ~table:delta_table in
  let k = Array.length appended in
  let target_b = Database.replace_table target_a (Delta.apply append_delta book) in
  let line j = Serve.Json.to_string j in
  let append_line =
    line
      (Serve.Protocol.update_json
         ~appends:(Array.to_list (Array.map (fun r -> Array.to_list (Array.map json_of_value r)) appended))
         ~target:"retail" ~table:delta_table ())
  in
  let delete_line =
    line
      (Serve.Protocol.update_json
         ~deletes:(Array.to_list (Delta.deletes delete_delta))
         ~target:"retail" ~table:delta_table ())
  in
  let truth = Evalharness.Ground_truth.retail params Workload.Retail.Ryan_eyers in
  let oracle target_db tables =
    let infer = Ctxmatch.Context_match.infer_of `Src_class ~target:target_db in
    let r =
      Ctxmatch.Context_match.run ~config ~infer ~source:(Pipeline.parse "source" tables)
        ~target:target_db ()
    in
    if r.Ctxmatch.Context_match.issues <> [] then failwith "oracle run quarantined work";
    r.Ctxmatch.Context_match.matches
  in
  let to_strings = List.map Matching.Schema_match.to_string in
  let matches_a = Array.map (oracle target_a) sources in
  let fmeasure = Pct.mean (Array.map (Evalharness.Ground_truth.fmeasure truth) matches_a) in
  if fmeasure < floor then
    failwith (Printf.sprintf "oracle F-measure %.3f is below the floor %.3f" fmeasure floor);
  {
    target;
    sources;
    match_lines;
    append_line;
    delete_line;
    delta_rows = k;
    base_rows;
    oracle_a = Array.map to_strings matches_a;
    oracle_b = Array.map (fun s -> to_strings (oracle target_b s)) sources;
    config;
    fmeasure;
    target_a;
    append_delta;
    delete_delta;
  }

(* --- the daemon ---------------------------------------------------------- *)

type daemon = { pid : int; socket : string }

let spawn ~cli ~dir =
  let socket = Filename.concat dir "d.sock" in
  let log = Unix.openfile (Filename.concat dir "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--socket"; socket; "--store"; Filename.concat dir "store";
        "--flush-every"; string_of_int flush_every; "--jobs"; string_of_int jobs;
      |]
      Unix.stdin log log
  in
  Unix.close log;
  { pid; socket }

(* Connect as soon as the daemon listens: fixed 2 ms retries, so the
   retry schedule adds at most 2 ms to set-up time. *)
let connect d =
  let give_up = Int64.add (now ()) 20_000_000_000L in
  let rec go () =
    match Serve.Client.connect ~retries:0 (Serve.Server.Unix_sock d.socket) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) when now () < give_up ->
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let ok reply = Serve.Json.member "ok" reply = Some (Serve.Json.Bool true)

let expect_ok what reply =
  if not (ok reply) then failwith (what ^ " failed: " ^ Serve.Json.to_string reply)

let register client inputs =
  expect_ok "register-target"
    (Serve.Client.request client (Serve.Protocol.register_json ~name:"retail" inputs.target))

let stop d client =
  (match Serve.Client.request client Serve.Protocol.shutdown_json with
  | _ -> ()
  | exception _ -> Unix.kill d.pid Sys.sigkill);
  Serve.Client.close client;
  ignore (Unix.waitpid [] d.pid)

(* VmHWM of /proc/PID/status, in MB. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  find ()

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> remove_tree (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec disk_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc e -> acc + disk_bytes (Filename.concat path e)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

(* --- the open loop -------------------------------------------------------- *)

type loop = {
  latency_ms : float array;  (** from due time to reply; nan if no reply *)
  late_ms : float array;  (** how late each request was sent *)
  correct : bool array;
  queue_depth_max : int;
  rejected : int;
  peak_mb : float;
}

let matches_equal want reply =
  Serve.Json.member "matches" reply
  = Some (Serve.Json.List (List.map (fun m -> Serve.Json.String m) want))
  && Serve.Json.member "issues" reply = Some (Serve.Json.List [])

let check_reply inputs i line =
  match Serve.Json.parse line with
  | exception Serve.Json.Parse_error _ -> false
  | reply -> (
    ok reply
    &&
    match kind_of i with
    | Match s ->
      matches_equal (if state_b_before i then inputs.oracle_b.(s) else inputs.oracle_a.(s)) reply
    | Append | Delete ->
      let rows = if kind_of i = Append then inputs.base_rows + inputs.delta_rows else inputs.base_rows in
      Serve.Json.member "mode" reply = Some (Serve.Json.String "patched")
      && Serve.Json.member "rows" reply = Some (Serve.Json.Int rows))

let open_loop inputs d ~seconds =
  (* never fewer requests than a p90 of matches and a p50 of updates need *)
  let total =
    max (int_of_float (seconds *. rate))
      (max (update_every * Pct.samples_needed 0.5) (2 * Pct.samples_needed 0.9))
  in
  let conn = connect d and side = connect d in
  let line i =
    match kind_of i with
    | Match s -> inputs.match_lines.(s)
    | Append -> inputs.append_line
    | Delete -> inputs.delete_line
  in
  let replies = Array.make total None in
  let finished = Atomic.make false in
  let start = Int64.add (now ()) 50_000_000L in
  let due i = Int64.add start (Int64.of_float (float_of_int i *. 1e9 /. rate)) in
  let reader =
    Thread.create
      (fun () ->
        (try
           for j = 0 to total - 1 do
             let l = Serve.Client.read_reply conn in
             replies.(j) <- Some (now (), l)
           done
         with End_of_file | Unix.Unix_error _ -> ());
        Atomic.set finished true)
      ()
  in
  let queue_depth_max = ref 0 and rejected = ref 0 in
  let sample_stats () =
    let reply = Serve.Client.request side Serve.Protocol.stats_json in
    let field name =
      Option.bind (Serve.Json.member "stats" reply) (Serve.Json.member name)
      |> Fun.flip Option.bind Serve.Json.to_int
      |> Option.value ~default:0
    in
    queue_depth_max := max !queue_depth_max (field "queue_depth");
    rejected := max !rejected (field "rejected")
  in
  let last_sample = ref 0L in
  let late_ms = Array.make total 0.0 in
  for i = 0 to total - 1 do
    let due_i = due i in
    let rec wait () =
      let t = now () in
      if t < due_i then begin
        if Int64.sub t !last_sample > 200_000_000L && Int64.sub due_i t > 20_000_000L then begin
          sample_stats ();
          last_sample := now ()
        end
        else Unix.sleepf (Float.min 0.005 (ms_between t due_i /. 1e3));
        wait ()
      end
    in
    wait ();
    Serve.Client.send_raw conn (line i ^ "\n");
    late_ms.(i) <- ms_between due_i (now ())
  done;
  (* a daemon that stops answering is killed, which ends the reader *)
  let give_up = Int64.add (now ()) 60_000_000_000L in
  while (not (Atomic.get finished)) && now () < give_up do
    Unix.sleepf 0.01
  done;
  if not (Atomic.get finished) then Unix.kill d.pid Sys.sigkill;
  Thread.join reader;
  let ended = now () in
  (* after a kill there is neither a stats reply nor a VmHWM line *)
  (try sample_stats () with _ -> ());
  let peak_mb = try peak_rss_mb d.pid with _ -> 0.0 in
  Serve.Client.close conn;
  stop d side;
  (* a request never answered counts as answered when the loop ended *)
  let latency_ms =
    Array.mapi
      (fun i r -> ms_between (due i) (match r with Some (t, _) -> t | None -> ended))
      replies
  in
  let correct =
    Array.mapi (fun i r -> match r with Some (_, l) -> check_reply inputs i l | None -> false) replies
  in
  { latency_ms; late_ms; correct; queue_depth_max = !queue_depth_max; rejected = !rejected; peak_mb }

(* --- set-up --------------------------------------------------------------- *)

(* Prime the store, then time [setup_rounds] daemon restarts over it;
   the last daemon is left running for the measurement. *)
let set_up inputs ~cli ~dir ~spawned =
  let spawn ~cli ~dir =
    let d = spawn ~cli ~dir in
    spawned d;
    d
  in
  let d0 = spawn ~cli ~dir in
  let c0 = connect d0 in
  register c0 inputs;
  stop d0 c0;
  let rec rounds k acc =
    let t0 = now () in
    let d = spawn ~cli ~dir in
    let c = connect d in
    register c inputs;
    let s = ms_between t0 (now ()) /. 1e3 in
    if k = 1 then (d, c, s :: acc)
    else begin
      stop d c;
      rounds (k - 1) (s :: acc)
    end
  in
  let d, c, samples = rounds setup_rounds [] in
  (* untimed warm-up: one closed-loop match per source, checked against
     the registered state *)
  Array.iteri
    (fun s l ->
      let reply = Serve.Json.parse (Serve.Client.request_line c l) in
      if not (ok reply && matches_equal inputs.oracle_a.(s) reply) then
        failwith "warm-up match reply differs from the oracle")
    inputs.match_lines;
  Serve.Client.close c;
  (d, Pct.median (Array.of_list samples))

let indices_where f n = List.filter f (List.init n Fun.id)

let run ~seed ~seconds ~trace ~cli ~workdir ~spans_path : Emit.result =
  if not (Sys.file_exists cli) then failwith ("no CLI executable at " ^ cli);
  if !Obs.Recorder.enabled then failwith "observability recorder enabled during a timed run";
  let inputs = inputs ~seed in
  let dir = Filename.concat workdir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  let daemon = ref None in
  Fun.protect
    ~finally:(fun () ->
      (match !daemon with
      | Some d -> (
        match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ ->
          Unix.kill d.pid Sys.sigkill;
          ignore (Unix.waitpid [] d.pid)
        | _ | (exception Unix.Unix_error _) -> ())
      | None -> ());
      remove_tree dir)
  @@ fun () ->
  let d, setup_s = set_up inputs ~cli ~dir ~spawned:(fun d -> daemon := Some d) in
  let loop = open_loop inputs d ~seconds in
  let n = Array.length loop.latency_ms in
  let is_match i = match kind_of i with Match _ -> true | _ -> false in
  let matches = indices_where is_match n and updates = indices_where (fun i -> not (is_match i)) n in
  let failed = List.length (indices_where (fun i -> not loop.correct.(i)) n) in
  let lat idx = Array.of_list (List.map (fun i -> loop.latency_ms.(i)) idx) in
  let match_ms = lat matches in
  let match_p50 = Pct.median match_ms in
  if not trace then
    {
      Emit.correct = failed = 0;
      attempted = n;
      failed;
      metrics =
        [
          ("run_ms.p50", Pct.median loop.latency_ms);
          ("run_ms.p90", Pct.percentile loop.latency_ms 0.9);
          ("match_ms.p50", match_p50);
          ("match_ms.p90", Pct.percentile match_ms 0.9);
          ("update_ms.p50", Pct.median (lat updates));
          ( "within_limit_frac",
            float_of_int
              (List.length
                 (List.filter (fun i -> loop.correct.(i) && loop.latency_ms.(i) <= limit_ms) matches))
            /. float_of_int (List.length matches) );
          ("fmeasure", inputs.fmeasure);
          ("setup_s", setup_s);
          ("peak_heap_mb", loop.peak_mb);
        ];
    }
  else begin
    (* in-process per-layer measurements on the very same inputs *)
    let reps = 2 in
    let timed f =
      let t0 = now () in
      let v = f () in
      (ms_between t0 (now ()), v)
    in
    let median_of k f = Pct.median (Array.init k (fun _ -> fst (timed f))) in
    let decode_ms =
      Pct.median
        (Array.concat
           (List.map
              (fun l ->
                Array.init 20 (fun _ ->
                    fst (timed (fun () -> ignore (Serve.Protocol.request_of_line l)))))
              (Array.to_list inputs.match_lines)))
    in
    (* the store the daemons left behind, opened in-process: the
       daemon's matches read through it, so these must too *)
    let store_dir = Filename.concat dir "store" in
    let open_ms, store = timed (fun () -> Store.open_dir store_dir) in
    let prepare () =
      Matching.Standard_match.prepare_target ~store ~kernel:true ~target:inputs.target_a ()
    in
    let prepare_ms = median_of 5 prepare in
    let prepared = prepare () in
    let infer = Ctxmatch.Context_match.infer_of `Src_class ~target:inputs.target_a in
    let runs = reps * sources in
    let exec i =
      Ctxmatch.Context_match.run ~config:inputs.config ~store ~prepared ~infer
        ~source:(Pipeline.parse "source" inputs.sources.(i mod sources))
        ~target:inputs.target_a ()
    in
    (* untimed, like the daemon's warm-up matches *)
    for i = 0 to sources - 1 do
      ignore (exec i)
    done;
    let gc0 = Gc.quick_stat () in
    (* untraced and traced runs alternate, so both see the same machine *)
    let exec_runs, traced =
      List.split
        (List.init runs (fun i ->
             let e = timed (fun () -> exec i) in
             Spans.iteration := i;
             let o, c =
               Pipeline.run_traced ~store ~target:(`Prepared prepared) ~map:false
                 ~config:inputs.config ~algorithm:`Src_class ~source:inputs.sources.(i mod sources)
                 ()
             in
             (e, (i, o, c))))
    in
    let gc1 = Gc.quick_stat () in
    let exec_runs = Array.of_list exec_runs in
    let st = Store.stats store in
    let exec_ms = Pct.median (Array.map fst exec_runs) in
    let exec_failed =
      List.length
        (indices_where
           (fun i ->
             List.map Matching.Schema_match.to_string (snd exec_runs.(i)).Ctxmatch.Context_match.matches
             <> inputs.oracle_a.(i mod sources))
           runs)
    in
    Spans.write spans_path;
    (* the trace must reproduce Context_match.run bit for bit *)
    let traced_failed =
      List.length
        (List.filter
           (fun (i, o, _) -> o.Pipeline.fp <> Pipeline.result_fingerprint (snd exec_runs.(i)))
           traced)
    in
    let maintain = Delta.Maintain.create ~store ~target:inputs.target_a ~prepared () in
    let updates_in_process =
      List.init 10 (fun u ->
          timed (fun () ->
              Delta.Maintain.update maintain
                (if u mod 2 = 0 then inputs.append_delta else inputs.delete_delta)))
    in
    let flush_ms, () = timed (fun () -> Store.flush store) in
    let patched =
      List.length (List.filter (fun (_, o) -> o = Ok Delta.Maintain.Patched) updates_in_process)
    in
    let traced_root =
      Pct.median (Array.of_list (List.map (fun (i, _, _) -> Spans.root_ms ~iteration:i) traced))
    in
    let failed_in_process = traced_failed + exec_failed in
    {
      Emit.correct = failed = 0 && failed_in_process = 0;
      attempted = n + (2 * runs);
      failed = failed + failed_in_process;
      metrics =
        Pipeline.layer_metrics traced
        @ Pipeline.gc_metrics ~ops:(2 * runs) gc0 gc1
        @ [
            ("standard_match.prepare_ms", prepare_ms);
            ("store.open_ms", open_ms);
            ("store.shard_loads", float_of_int st.Store.st_shard_loads);
            ( "store.hit_ratio",
              float_of_int st.Store.st_hits
              /. float_of_int (max 1 (st.Store.st_hits + st.Store.st_misses)) );
            ("store.flush_ms", flush_ms);
            ("store.disk_bytes", float_of_int (disk_bytes store_dir));
            ("maintain.update_ms", Pct.median (Array.of_list (List.map fst updates_in_process)));
            ( "maintain.patched_ratio",
              float_of_int patched /. float_of_int (List.length updates_in_process) );
            ("protocol.decode_ms", decode_ms);
            ("serve.exec_ms", exec_ms);
            ("serve.wait_ms", match_p50 -. exec_ms);
            ("server.queue_depth_max", float_of_int loop.queue_depth_max);
            ("server.rejected", float_of_int loop.rejected);
            ("loadgen.late_ms.p90", Pct.percentile loop.late_ms 0.9);
            ("trace.overhead_frac", (traced_root /. exec_ms) -. 1.0);
          ];
    }
  end
