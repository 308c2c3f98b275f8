(* Entry addresses hash the version, so it stays 2 for as long as the
   artefact records keep their layout; a v1 store quarantines on open
   and rebuilds, like any foreign-version layout. *)
let format_version = 2

type key = { table : string; attr : string; subset : string; data : string }

type artefact =
  | Profile of Textsim.Profile.t
  | Summary of Stats.Descriptive.summary
  | Distinct of string list

type shard = {
  mutable state : [ `Unloaded | `Loaded of (string, artefact) Hashtbl.t ];
  mutable dirty : bool;
}

type t = {
  dir : string;
  nshards : int;
  ro : bool;
  report : Robust.Report.t option;
  mutex : Mutex.t;
  shards : shard array;
  mutable rev_issues : Robust.Error.t list;
  mutable hits : int;
  mutable misses : int;
  mutable adds : int;
  mutable loads : int;
  mutable quarantined : int;
  mutable flushed : int;
}

let dir t = t.dir
let readonly t = t.ro

(* Local parse failure; every raiser is caught by the shard loader and
   turned into a quarantine, never a user-visible exception. *)
exception Corrupt of string

(* ---- canonical encodings ---------------------------------------------- *)

let hex_digit = "0123456789abcdef"

let to_hex s =
  let b = Bytes.create (2 * String.length s) in
  String.iteri
    (fun i c ->
      let x = Char.code c in
      Bytes.set b (2 * i) hex_digit.[x lsr 4];
      Bytes.set b ((2 * i) + 1) hex_digit.[x land 15])
    s;
  Bytes.to_string b

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then raise (Corrupt "odd hex length");
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | _ -> raise (Corrupt "bad hex digit")
  in
  String.init (n / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))

(* The address binds every component of the identity — kind, table,
   attribute, row subset, data digest and the format version — through
   length-prefixed fields, so no concatenation of differing components
   can collide textually. *)
let address ~kind k =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "ctxstore|%d|%c|%d:%s|%d:%s|%s|%s" format_version kind
          (String.length k.table) k.table (String.length k.attr) k.attr k.subset k.data))

let table_digest table =
  let open Relational in
  let buf = Buffer.create 4096 in
  let add_str s =
    Buffer.add_string buf (string_of_int (String.length s));
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  add_str (Table.name table);
  let schema = Table.schema table in
  List.iter
    (fun name ->
      add_str name;
      Buffer.add_string buf (Value.ty_to_string (Schema.attribute schema name).Attribute.ty);
      Buffer.add_char buf ';')
    (Schema.attribute_names schema);
  Array.iter
    (fun row ->
      Array.iter
        (fun v ->
          (match v with
          | Value.Null -> Buffer.add_string buf "n"
          | Value.Int i ->
            Buffer.add_char buf 'i';
            Buffer.add_string buf (string_of_int i)
          | Value.Float f ->
            (* IEEE bits, not a decimal rendering: two floats that print
               the same must not collide *)
            Buffer.add_char buf 'f';
            Buffer.add_string buf (Int64.to_string (Int64.bits_of_float f))
          | Value.Bool b -> Buffer.add_string buf (if b then "b1" else "b0")
          | Value.String s ->
            Buffer.add_char buf 's';
            add_str s);
          Buffer.add_char buf ',')
        row;
      Buffer.add_char buf '|')
    (Table.rows table);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* ---- shard serialisation ---------------------------------------------- *)

(* Fault keys are these names relative to the store directory, so the
   same faults fire wherever the store lives. *)
let shard_name i = Printf.sprintf "shard-%04d.dat" i
let index_name = "store.index"
let shard_path t i = Filename.concat t.dir (shard_name i)
let index_path dir = Filename.concat dir index_name

let emit_entry buf addr art =
  match art with
  | Profile p ->
    let counts = Textsim.Profile.counts p in
    Buffer.add_string buf
      (Printf.sprintf "P %s 3 %d %d\n" addr (Textsim.Profile.total p) (Array.length counts));
    Array.iter
      (fun (gram, n) -> Buffer.add_string buf (Printf.sprintf "G %s %d\n" (to_hex gram) n))
      counts
  | Summary s ->
    Buffer.add_string buf
      (Printf.sprintf "S %s %d %h %h %h %h %h\n" addr s.Stats.Descriptive.n
         s.Stats.Descriptive.mean s.Stats.Descriptive.variance s.Stats.Descriptive.stddev
         s.Stats.Descriptive.min s.Stats.Descriptive.max)
  | Distinct l ->
    Buffer.add_string buf (Printf.sprintf "D %s %d\n" addr (List.length l));
    List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "V %s\n" (to_hex v))) l

let render_shard t i table =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "ctxstore %d shard %d/%d\n" format_version i t.nshards);
  let entries =
    Hashtbl.fold (fun addr art acc -> (addr, art) :: acc) table []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (addr, art) -> emit_entry buf addr art) entries;
  Buffer.add_string buf (Printf.sprintf "END %d\n" (List.length entries));
  Buffer.contents buf

let int_field what s =
  match int_of_string_opt s with
  | Some i -> i
  | None -> raise (Corrupt (Printf.sprintf "bad %s %S" what s))

(* A count steers [Array.init]/[List.init], which raise
   [Invalid_argument] on a negative length: that must surface as
   [Corrupt], the one exception the shard loader quarantines on. *)
let count_field what s =
  let n = int_field what s in
  if n < 0 then raise (Corrupt (Printf.sprintf "negative %s %d" what n));
  n

let float_field what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> raise (Corrupt (Printf.sprintf "bad %s %S" what s))

(* Parse one serialised shard.  Every anomaly — wrong magic, foreign
   format version, wrong shard coordinates, malformed line, a count
   that does not match, missing END terminator (truncation) — raises
   [Corrupt]. *)
let parse_shard ~index ~nshards text =
  let lines = String.split_on_char '\n' text in
  let lines = ref lines in
  let next what =
    match !lines with
    | [] -> raise (Corrupt (Printf.sprintf "truncated: missing %s" what))
    | l :: rest ->
      lines := rest;
      l
  in
  let header = String.split_on_char ' ' (next "header") in
  (match header with
  | [ "ctxstore"; v; "shard"; coords ] ->
    let v = int_field "version" v in
    if v <> format_version then
      raise (Corrupt (Printf.sprintf "format version %d, expected %d" v format_version));
    if coords <> Printf.sprintf "%d/%d" index nshards then
      raise (Corrupt (Printf.sprintf "shard coordinates %s, expected %d/%d" coords index nshards))
  | _ -> raise (Corrupt "bad magic"));
  let table = Hashtbl.create 64 in
  let entries = ref 0 in
  let rec entry () =
    match String.split_on_char ' ' (next "entry") with
    | [ "END"; n ] ->
      if int_field "END count" n <> !entries then raise (Corrupt "entry count mismatch");
      (match !lines with
      | [] | [ "" ] -> ()
      | _ -> raise (Corrupt "trailing garbage after END"))
    | [ "P"; addr; q; total; n ] ->
      let n = count_field "gram count" n in
      let counts =
        Array.init n (fun _ ->
            match String.split_on_char ' ' (next "gram") with
            | [ "G"; gram; c ] -> (of_hex gram, int_field "gram occurrences" c)
            | _ -> raise (Corrupt "bad gram line"))
      in
      if int_field "q" q <> 3 then raise (Corrupt (Printf.sprintf "gram size %s, expected 3" q));
      let p =
        try Textsim.Profile.of_counts counts with Invalid_argument m -> raise (Corrupt m)
      in
      if Textsim.Profile.total p <> int_field "total" total then
        raise (Corrupt "profile total mismatch");
      Hashtbl.replace table addr (Profile p);
      incr entries;
      entry ()
    | [ "S"; addr; n; mean; variance; stddev; min; max ] ->
      Hashtbl.replace table addr
        (Summary
           {
             Stats.Descriptive.n = int_field "summary n" n;
             mean = float_field "mean" mean;
             variance = float_field "variance" variance;
             stddev = float_field "stddev" stddev;
             min = float_field "min" min;
             max = float_field "max" max;
           });
      incr entries;
      entry ()
    | [ "D"; addr; n ] ->
      let n = count_field "distinct count" n in
      let values =
        List.init n (fun _ ->
            match String.split_on_char ' ' (next "distinct value") with
            | [ "V"; v ] -> of_hex v
            | _ -> raise (Corrupt "bad distinct line"))
      in
      Hashtbl.replace table addr (Distinct values);
      incr entries;
      entry ()
    | [ "X"; _addr; _table; _from; _to; _from_rows; n_app; n_del ] ->
      (* A delta record, which stores wrote until the delta log was
         removed.  Nothing reads one, so only its line structure is
         checked (counts, line tags, one index per delete) before it is
         skipped; it still counts against END, so such a shard opens
         clean, and the record is gone the next time the shard is
         written. *)
      let skip what tag n =
        for _ = 1 to n do
          match String.split_on_char ' ' (next what) with
          | t :: _ when t = tag -> ()
          | _ -> raise (Corrupt (Printf.sprintf "bad %s line" what))
        done
      in
      let n_del = count_field "delete count" n_del in
      skip "append row" "R" (count_field "append count" n_app);
      (match String.split_on_char ' ' (next "delete indices") with
      | "I" :: idxs when List.length idxs = n_del -> ()
      | _ -> raise (Corrupt "bad delete-indices line"));
      skip "deleted row" "Q" n_del;
      incr entries;
      entry ()
    | _ -> raise (Corrupt "unrecognised entry line")
  in
  entry ();
  table

(* ---- quarantine -------------------------------------------------------- *)

let record_issue t message =
  let issue = Robust.Error.v ~severity:Robust.Error.Warning Robust.Error.Store message in
  t.rev_issues <- issue :: t.rev_issues;
  (match t.report with Some r -> Robust.Report.add r issue | None -> ());
  t.quarantined <- t.quarantined + 1;
  Obs.Metrics.incr "store.quarantined"

(* Move a bad file aside so the rebuild never rereads it.  Read-only
   stores leave the file in place (they must not touch disk); failures
   to rename fall back to removal, and a file we can neither rename nor
   remove is simply overwritten by the next flush. *)
let set_aside t path =
  if not t.ro then begin
    let target = path ^ ".quarantined" in
    try
      if Sys.file_exists target then Sys.remove target;
      Sys.rename path target
    with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ())
  end

let quarantine t path reason =
  record_issue t (Printf.sprintf "%s quarantined (%s); rebuilding" (Filename.basename path) reason);
  set_aside t path

(* ---- open -------------------------------------------------------------- *)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_index text =
  match String.split_on_char ' ' (String.trim text) with
  | [ "ctxstore-index"; v; "shards"; n ] ->
    let v = int_field "index version" v in
    if v <> format_version then
      raise (Corrupt (Printf.sprintf "index format version %d, expected %d" v format_version));
    let n = int_field "shard count" n in
    if n < 1 || n > 4096 then raise (Corrupt "implausible shard count");
    n
  | _ -> raise (Corrupt "bad index magic")

(* ---- recovery audit ---------------------------------------------------- *)

type shard_status = Shard_clean | Shard_truncated | Shard_corrupt | Shard_quarantined

let shard_status_name = function
  | Shard_clean -> "clean"
  | Shard_truncated -> "truncated"
  | Shard_corrupt -> "corrupt"
  | Shard_quarantined -> "quarantined"

type verify_entry = { ve_file : string; ve_status : shard_status; ve_detail : string }

type verify_report = {
  vr_entries : verify_entry list;
  vr_clean : int;
  vr_truncated : int;
  vr_corrupt : int;
  vr_quarantined : int;
  vr_tmp : int;
  vr_index_ok : bool;
}

let verify_healthy r =
  r.vr_truncated = 0 && r.vr_corrupt = 0 && r.vr_index_ok

(* The END footer is the truncation canary: a file whose last line is
   not "END <n>" lost its tail (torn write, power cut before the data
   hit disk), whereas a file that still carries END but fails to parse
   was damaged some other way. *)
let has_end_footer text =
  let n = String.length text in
  let stop = if n > 0 && text.[n - 1] = '\n' then n - 1 else n in
  let start = match String.rindex_from_opt text (max 0 (stop - 1)) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  stop > start + 4 && String.sub text start 4 = "END "

let shard_index_of_file f =
  if String.length f = 14 && String.sub f 0 6 = "shard-" && Filename.check_suffix f ".dat"
  then int_of_string_opt (String.sub f 6 4)
  else None

(* Walk [dir] and classify every store file without mutating anything:
   clean shards parse end to end, truncated ones lost their END
   footer, corrupt ones fail to parse some other way, and files the
   recovery path already set aside stay quarantined.  Leftover
   temp files from an interrupted atomic write are counted but
   harmless — the rename never happened, so the shard they were
   replacing is intact. *)
let verify dir =
  let files =
    match Sys.readdir dir with
    | files -> Array.to_list files |> List.sort String.compare
    | exception Sys_error _ -> []
  in
  let index_ok, nshards =
    let path = index_path dir in
    if not (Sys.file_exists path) then
      (* an index-less directory is an empty (or never-flushed) store *)
      (true, None)
    else
      match parse_index (read_file path) with
      | n -> (true, Some n)
      | exception (Corrupt _ | Sys_error _) -> (false, None)
  in
  let entries =
    List.filter_map
      (fun f ->
        if Filename.check_suffix f ".quarantined" then
          Some { ve_file = f; ve_status = Shard_quarantined; ve_detail = "set aside by recovery" }
        else
          match shard_index_of_file f with
          | None -> None
          | Some i -> (
            let path = Filename.concat dir f in
            match read_file path with
            | exception Sys_error reason ->
              Some { ve_file = f; ve_status = Shard_corrupt; ve_detail = reason }
            | text -> (
              let nshards =
                match nshards with
                | Some n -> n
                | None -> (
                  (* no readable index: trust the shard's own header *)
                  match String.index_opt text '\n' with
                  | Some eol -> (
                    match String.split_on_char ' ' (String.sub text 0 eol) with
                    | [ "ctxstore"; _; "shard"; coords ] -> (
                      match String.split_on_char '/' coords with
                      | [ _; n ] -> ( match int_of_string_opt n with Some n -> n | None -> 0)
                      | _ -> 0)
                    | _ -> 0)
                  | None -> 0)
              in
              match parse_shard ~index:i ~nshards text with
              | _ ->
                Some { ve_file = f; ve_status = Shard_clean; ve_detail = "" }
              | exception Corrupt reason ->
                let status = if has_end_footer text then Shard_corrupt else Shard_truncated in
                Some { ve_file = f; ve_status = status; ve_detail = reason })))
      files
  in
  let count st = List.length (List.filter (fun e -> e.ve_status = st) entries) in
  let tmp =
    List.length
      (List.filter (fun f -> Filename.check_suffix f ".tmp" && String.length f >= 5) files)
  in
  {
    vr_entries = entries;
    vr_clean = count Shard_clean;
    vr_truncated = count Shard_truncated;
    vr_corrupt = count Shard_corrupt;
    vr_quarantined = count Shard_quarantined;
    vr_tmp = tmp;
    vr_index_ok = index_ok;
  }

let open_dir ?(shards = 8) ?(readonly = false) ?report dir =
  if shards < 1 then invalid_arg "Store.open_dir: shards must be >= 1";
  if not readonly then mkdir_p dir;
  let t =
    {
      dir;
      nshards = shards;
      ro = readonly;
      report;
      mutex = Mutex.create ();
      shards = [||];
      rev_issues = [];
      hits = 0;
      misses = 0;
      adds = 0;
      loads = 0;
      quarantined = 0;
      flushed = 0;
    }
  in
  let nshards =
    let path = index_path dir in
    if not (Sys.file_exists path) then shards
    else begin
      match parse_index (read_file path) with
      | n -> n
      | exception (Corrupt reason | Sys_error reason) ->
        (* a foreign or corrupt index invalidates the whole layout:
           quarantine it and every shard file, then start fresh *)
        quarantine t path reason;
        Array.iter
          (fun f ->
            if
              String.length f >= 6
              && String.sub f 0 6 = "shard-"
              && Filename.check_suffix f ".dat"
            then set_aside t (Filename.concat dir f))
          (Sys.readdir dir);
        shards
    end
  in
  {
    t with
    nshards;
    shards = Array.init nshards (fun _ -> { state = `Unloaded; dirty = false });
  }

(* ---- lookups / adds ---------------------------------------------------- *)

let shard_of t addr = int_of_string ("0x" ^ String.sub addr 0 4) mod t.nshards

(* Under [t.mutex]. *)
let loaded_shard t i =
  let shard = t.shards.(i) in
  match shard.state with
  | `Loaded table -> table
  | `Unloaded ->
    let path = shard_path t i in
    (* A read fault is a transient I/O error, not data damage: it
       propagates to the caller and leaves the shard [`Unloaded] so a
       later access retries — quarantining the (healthy) file here
       would destroy data over a passing failure. *)
    Robust.Fault.check Robust.Fault.Store_shard_read ~key:(shard_name i);
    let table =
      if not (Sys.file_exists path) then Hashtbl.create 64
      else begin
        Obs.Trace.with_span "store.load" @@ fun () ->
        match parse_shard ~index:i ~nshards:t.nshards (read_file path) with
        | table ->
          t.loads <- t.loads + 1;
          Obs.Metrics.incr "store.shard_loads";
          table
        | exception (Corrupt reason | Sys_error reason) ->
          quarantine t path reason;
          shard.dirty <- not t.ro;
          Hashtbl.create 64
      end
    in
    shard.state <- `Loaded table;
    table

let find t ~kind key =
  Mutex.lock t.mutex;
  let result =
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
    match Hashtbl.find_opt (loaded_shard t (shard_of t (address ~kind key))) (address ~kind key) with
    | Some art ->
      t.hits <- t.hits + 1;
      Some art
    | None ->
      t.misses <- t.misses + 1;
      None
  in
  (if !Obs.Recorder.enabled then
     match result with
     | Some _ -> Obs.Metrics.incr "store.hits"
     | None -> Obs.Metrics.incr "store.misses");
  result

let add t ~kind key art =
  if not t.ro then begin
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
    let addr = address ~kind key in
    let i = shard_of t addr in
    let table = loaded_shard t i in
    if not (Hashtbl.mem table addr) then begin
      Hashtbl.replace table addr art;
      t.shards.(i).dirty <- true;
      t.adds <- t.adds + 1;
      if !Obs.Recorder.enabled then Obs.Metrics.incr "store.adds"
    end
  end

let find_profile t key =
  match find t ~kind:'p' key with Some (Profile p) -> Some p | Some _ | None -> None

let find_summary t key =
  match find t ~kind:'s' key with Some (Summary s) -> Some s | Some _ | None -> None

let find_distinct t key =
  match find t ~kind:'d' key with Some (Distinct d) -> Some d | Some _ | None -> None

let add_profile t key p = add t ~kind:'p' key (Profile p)
let add_summary t key s = add t ~kind:'s' key (Summary s)
let add_distinct t key d = add t ~kind:'d' key (Distinct d)

(* ---- flush ------------------------------------------------------------- *)

(* Atomic temp-file-plus-rename write, with two injection points
   matching the two real crash models:

   - [Store_shard_write] with [Raise] fails before anything reaches
     [path]: the old contents survive untouched (a leftover .tmp at
     worst).  With [Torn_write frac] it persists only a prefix of the
     payload *and still renames* — the no-fsync model where the rename
     is durable but the data behind it is not; the END footer canary
     catches the truncation on the next read.
   - [Store_flush_rename] fails at the rename itself: old contents
     survive, the complete new contents sit in a removed .tmp.

   Either way every observable shard state is old, new, or
   quarantinable-torn — never silent garbage. *)
let write_atomic ~dir ~name content =
  let path = Filename.concat dir name in
  let torn =
    match Robust.Fault.fire Robust.Fault.Store_shard_write ~key:name with
    | Some (Torn_write frac) ->
      Some (String.sub content 0 (int_of_float (frac *. float_of_int (String.length content))))
    | Some Robust.Fault.Raise -> raise (Robust.Fault.Injected { site = Store_shard_write; key = name })
    | Some (Latency_ms _) | None ->
      ignore (Robust.Fault.check Robust.Fault.Store_shard_write ~key:name);
      None
  in
  let tmp = Filename.temp_file ~temp_dir:dir "store" ".tmp" in
  let oc = open_out_bin tmp in
  (try output_string oc (match torn with Some prefix -> prefix | None -> content)
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  close_out oc;
  (match Robust.Fault.fire Robust.Fault.Store_flush_rename ~key:name with
  | Some (Robust.Fault.Raise | Torn_write _) ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Robust.Fault.Injected { site = Store_flush_rename; key = name })
  | Some (Latency_ms _) ->
    ignore (Robust.Fault.check Robust.Fault.Store_flush_rename ~key:name);
    Sys.rename tmp path
  | None -> Sys.rename tmp path);
  match torn with
  | Some _ -> raise (Robust.Fault.Injected { site = Store_shard_write; key = name })
  | None -> ()

let flush t =
  if not t.ro then begin
    Obs.Trace.with_span "store.flush" @@ fun () ->
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) @@ fun () ->
    Array.iteri
      (fun i shard ->
        match shard.state with
        | `Loaded table when shard.dirty ->
          write_atomic ~dir:t.dir ~name:(shard_name i) (render_shard t i table);
          shard.dirty <- false;
          t.flushed <- t.flushed + 1;
          if !Obs.Recorder.enabled then Obs.Metrics.incr "store.flushed_shards"
        | `Loaded _ | `Unloaded -> ())
      t.shards;
    write_atomic ~dir:t.dir ~name:index_name
      (Printf.sprintf "ctxstore-index %d shards %d\n" format_version t.nshards)
  end

(* ---- stats ------------------------------------------------------------- *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_adds : int;
  st_shard_loads : int;
  st_quarantined : int;
  st_flushed : int;
  st_entries : int;
}

let stats t =
  Mutex.lock t.mutex;
  let entries =
    Array.fold_left
      (fun acc shard ->
        match shard.state with `Loaded table -> acc + Hashtbl.length table | `Unloaded -> acc)
      0 t.shards
  in
  let s =
    {
      st_hits = t.hits;
      st_misses = t.misses;
      st_adds = t.adds;
      st_shard_loads = t.loads;
      st_quarantined = t.quarantined;
      st_flushed = t.flushed;
      st_entries = entries;
    }
  in
  Mutex.unlock t.mutex;
  s

let issues t =
  Mutex.lock t.mutex;
  let l = List.rev t.rev_issues in
  Mutex.unlock t.mutex;
  l
