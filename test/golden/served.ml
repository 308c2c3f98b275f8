(* Golden replies of one fixed serve session: an in-process daemon on a
   Unix socket, one client, and the requests below in order.  Each
   reply is printed on one line after a "== request" header, with the
   wall-clock field [elapsed_ms] removed.  No store is attached, so
   every other field (counters, cache accounting, generations) is
   deterministic.

   Usage: served.exe

   The dune rule next to this file diffs the output against
   [served.expected]; an intended change is a [dune promote]. *)

open Relational

let rec strip_timing = function
  | Serve.Json.Obj fields ->
    Serve.Json.Obj
      (List.filter_map
         (fun (k, v) -> if k = "elapsed_ms" then None else Some (k, strip_timing v))
         fields)
  | Serve.Json.List l -> Serve.Json.List (List.map strip_timing l)
  | v -> v

let params = { Workload.Retail.default_params with rows = 120; target_rows = 60; seed = 42 }
let source = Workload.Retail.source params
let target = Workload.Retail.target params Workload.Retail.Ryan_eyers

let payload db =
  List.map (fun t -> (Table.name t, Csv_io.table_to_csv t)) (Database.tables db)

let cell = function
  | Value.Null -> Serve.Json.Null
  | Value.Int n -> Serve.Json.Int n
  | Value.Float f -> Serve.Json.Float f
  | Value.Bool b -> Serve.Json.Bool b
  | Value.String s -> Serve.Json.String s

let row r = Array.to_list (Array.map cell r)

let with_temp_dir f =
  let dir = Filename.temp_file "ctxserved" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let () =
  with_temp_dir @@ fun dir ->
  let address = Serve.Server.Unix_sock (Filename.concat dir "d.sock") in
  let server = Serve.Server.create (Serve.Server.default_config address) in
  let thread = Serve.Server.start server in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Thread.join thread)
  @@ fun () ->
  let client = Serve.Client.connect ~retries:100 ~retry_delay_s:0.05 address in
  Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
  let request label json =
    (* the executor clears its in-flight flag just after handing a
       reply over; wait for it so the counters read the same each run *)
    while (Serve.Server.counters server).Serve.Server.c_inflight <> 0 do
      Thread.delay 0.001
    done;
    Printf.printf "== %s\n%s\n%!" label
      (Serve.Json.to_string (strip_timing (Serve.Client.request client json)))
  in
  let book = Database.table target "Book" in
  let in_vocab = row (Table.rows book).(0) in
  let out_of_vocab =
    let r = Array.copy (Table.rows book).(0) in
    r.(1) <- Value.String "zzqqxxjj wwkkvvyy";
    row r
  in
  let tables = payload source in
  request "register-target" (Serve.Protocol.register_json ~name:"retail" (payload target));
  request "match src" (Serve.Protocol.match_json ~algorithm:"src" ~target:"retail" tables);
  request "match naive" (Serve.Protocol.match_json ~algorithm:"naive" ~target:"retail" tables);
  request "update-target in-vocabulary"
    (Serve.Protocol.update_json ~appends:[ in_vocab ] ~deletes:[ 1; 2 ] ~target:"retail"
       ~table:"Book" ());
  request "update-target out-of-vocabulary"
    (Serve.Protocol.update_json ~appends:[ out_of_vocab ] ~target:"retail" ~table:"Book" ());
  request "match src after updates"
    (Serve.Protocol.match_json ~algorithm:"src" ~target:"retail" tables);
  request "match unknown target" (Serve.Protocol.match_json ~target:"nope" tables);
  request "list-targets" Serve.Protocol.list_targets_json;
  request "health" Serve.Protocol.health_json;
  request "stats" Serve.Protocol.stats_json
