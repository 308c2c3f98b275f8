type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  work_done : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable outstanding : int;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

(* Workers sleep on [work_available]; every finished task decrements
   [outstanding] under the mutex, and the task that empties a batch
   wakes the submitter through [work_done]. *)
let worker_loop t =
  Mutex.lock t.mutex;
  let rec loop () =
    if t.stop then Mutex.unlock t.mutex
    else
      match Queue.take_opt t.tasks with
      | Some task ->
        Mutex.unlock t.mutex;
        task ();
        Mutex.lock t.mutex;
        t.outstanding <- t.outstanding - 1;
        if t.outstanding = 0 then Condition.broadcast t.work_done;
        loop ()
      | None ->
        Condition.wait t.work_available t.mutex;
        loop ()
  in
  loop ()

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

(* Spawning fails past the runtime's domain limit (128 in OCaml 5.1).
   The workers already spawned are joined before the failure propagates:
   left running, they would hold the process's domain slots and every
   later pool would fail to spawn too. *)
let create ~jobs =
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      work_done = Condition.create ();
      tasks = Queue.create ();
      outstanding = 0;
      stop = false;
      workers = [];
    }
  in
  (try
     for _ = 2 to jobs do
       t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace e bt);
  t

(* Observability wrapper around a chunk body: queue-wait and run-time
   histograms, busy-time accounting, and a span that nests under the
   span open on the SUBMITTING domain (captured here, passed explicitly,
   since the worker's own span stack is empty).  Only built when the
   recorder is on; the disabled cost of instrumentation is the single
   [!Obs.Recorder.enabled] branch at each site. *)
let instrument_chunk run_range =
  let parent = Obs.Trace.current () in
  let submitted = Robust.Deadline.now_ns () in
  fun lo hi ->
    let started = Robust.Deadline.now_ns () in
    Obs.Metrics.observe_ns "pool.task_wait_ns" (Int64.sub started submitted);
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (Robust.Deadline.now_ns ()) started in
        Obs.Metrics.incr "pool.tasks";
        Obs.Metrics.observe_ns "pool.task_run_ns" dur;
        Obs.Metrics.add "pool.busy_ns" (Int64.to_int dur))
      (fun () -> Obs.Trace.with_span ?parent "pool.chunk" (fun () -> run_range lo hi))

(* Split [0, n) into contiguous chunks, queue [run_range lo hi] for
   each, and drain the batch — the submitting domain works through its
   own share instead of going idle.  [run_range] must not raise. *)
let run_chunked t n run_range =
  let observed = !Obs.Recorder.enabled in
  let batch_start = if observed then Robust.Deadline.now_ns () else 0L in
  let run_range = if observed then instrument_chunk run_range else run_range in
  (* More chunks than domains, so an uneven chunk cannot serialise the
     batch; which domain runs which chunk never shows in the output. *)
  let chunks = min n (t.jobs * 4) in
  let base = n / chunks and extra = n mod chunks in
  Mutex.lock t.mutex;
  let lo = ref 0 in
  for c = 0 to chunks - 1 do
    let size = base + if c < extra then 1 else 0 in
    let l = !lo in
    let h = l + size in
    lo := h;
    Queue.add (fun () -> run_range l h) t.tasks
  done;
  t.outstanding <- t.outstanding + chunks;
  Condition.broadcast t.work_available;
  let rec help () =
    match Queue.take_opt t.tasks with
    | Some task ->
      Mutex.unlock t.mutex;
      task ();
      Mutex.lock t.mutex;
      t.outstanding <- t.outstanding - 1;
      if t.outstanding = 0 then Condition.broadcast t.work_done;
      help ()
    | None -> ()
  in
  help ();
  while t.outstanding > 0 do
    Condition.wait t.work_done t.mutex
  done;
  Mutex.unlock t.mutex;
  if observed then begin
    let wall = Int64.sub (Robust.Deadline.now_ns ()) batch_start in
    Obs.Metrics.incr "pool.batches";
    (* capacity = batch wall time x worker count; utilization (exported
       as busy/capacity) says how much of it ran tasks *)
    Obs.Metrics.add "pool.capacity_ns" (Int64.to_int wall * t.jobs)
  end

(* The sequential fallback of a map is the whole batch run as one task
   on the submitting domain: same span/counter taxonomy as the chunked
   path, so jobs=1 runs still report utilization (trivially ~1). *)
let seq_init n eval =
  if not !Obs.Recorder.enabled then Array.init n eval
  else begin
    let started = Robust.Deadline.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let dur = Int64.sub (Robust.Deadline.now_ns ()) started in
        Obs.Metrics.incr "pool.batches";
        Obs.Metrics.incr "pool.tasks";
        Obs.Metrics.observe_ns "pool.task_wait_ns" 0L;
        Obs.Metrics.observe_ns "pool.task_run_ns" dur;
        Obs.Metrics.add "pool.busy_ns" (Int64.to_int dur);
        Obs.Metrics.add "pool.capacity_ns" (Int64.to_int dur))
      (fun () -> Obs.Trace.with_span "pool.chunk" (fun () -> Array.init n eval))
  end

let parallel_init t n f =
  if n = 0 then [||]
  else if t.jobs <= 1 || t.stop || n = 1 then seq_init n f
  else begin
    let results = Array.make n None in
    let error = ref None in
    let run_range lo hi =
      try
        for i = lo to hi - 1 do
          results.(i) <- Some (f i)
        done
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Mutex.lock t.mutex;
        if !error = None then error := Some (e, bt);
        Mutex.unlock t.mutex
    in
    run_chunked t n run_range;
    match !error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> Array.map (function Some v -> v | None -> assert false) results
  end

(* Fault-contained variant: each index is computed under its own
   try/catch (plus the Pool_task injection site and a cooperative
   deadline check), so one failing element quarantines only itself.
   The per-index outcome depends only on the index and [f], never on
   scheduling, so the Ok/Error pattern — and every Ok payload — is
   identical at every [jobs] value (deadline expiry aside, which is
   inherently timing-dependent). *)
let eval_result deadline f i =
  if Robust.Deadline.expired deadline then
    Error (Robust.Deadline.Expired { stage = "pool" })
  else
    match
      Robust.Fault.check Robust.Fault.Pool_task ~key:(string_of_int i);
      f i
    with
    | v -> Ok v
    | exception e -> Error e

let parallel_init_results t ?(deadline = Robust.Deadline.none) n f =
  let eval = eval_result deadline f in
  if n = 0 then [||]
  else if t.jobs <= 1 || t.stop || n = 1 then seq_init n eval
  else begin
    let results = Array.make n None in
    let run_range lo hi =
      for i = lo to hi - 1 do
        results.(i) <- Some (eval i)
      done
    in
    run_chunked t n run_range;
    Array.map (function Some v -> v | None -> assert false) results
  end

let map_array_results t ?deadline f arr =
  parallel_init_results t ?deadline (Array.length arr) (fun i -> f arr.(i))

let mapi_list t f l =
  let arr = Array.of_list l in
  Array.to_list (parallel_init t (Array.length arr) (fun i -> f i arr.(i)))

let map_list t f l = mapi_list t (fun _ x -> f x) l

let map_list_results t ?deadline f l =
  let arr = Array.of_list l in
  Array.to_list (parallel_init_results t ?deadline (Array.length arr) (fun i -> f arr.(i)))

let concat_map_list t f l = List.concat (map_list t f l)

(* One process-wide pool, re-sized on demand.  Spawned domains would
   otherwise sleep in [Condition.wait] at process exit, so the hook
   joins them before the runtime shuts down.  The cache is
   mutex-protected so the serve daemon's executor thread — a systhread,
   not the thread that ran module initialisation — can resize it
   between requests without racing a concurrent caller; batches are
   still submitted from one thread at a time (the executor serialises
   them). *)
let cached : t option ref = ref None
let cached_mutex = Mutex.create ()
let exit_hook = ref false

let get ~jobs =
  Mutex.lock cached_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock cached_mutex) @@ fun () ->
  match !cached with
  | Some p when p.jobs = jobs && not p.stop -> p
  | prev ->
    (match prev with Some p -> shutdown p | None -> ());
    let p = create ~jobs in
    cached := Some p;
    if not !exit_hook then begin
      exit_hook := true;
      at_exit (fun () -> match !cached with Some p -> shutdown p | None -> ())
    end;
    p
