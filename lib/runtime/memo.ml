type ('k, 'v) t = {
  mutex : Mutex.t;
  (* signalled whenever a pending key settles, stored or failed *)
  settled : Condition.t;
  table : ('k, 'v) Hashtbl.t;
  (* keys some domain is computing right now *)
  pending : ('k, unit) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create ?(initial_size = 64) () =
  {
    mutex = Mutex.create ();
    settled = Condition.create ();
    table = Hashtbl.create initial_size;
    pending = Hashtbl.create 8;
    hits = 0;
    misses = 0;
  }

let settle t key stored =
  Mutex.lock t.mutex;
  Hashtbl.remove t.pending key;
  Option.iter (Hashtbl.replace t.table key) stored;
  Condition.broadcast t.settled;
  Mutex.unlock t.mutex

let find_or_add t key compute =
  (* Injection site for the fault harness: the key's structural hash is
     stable across domains and runs, so an armed fault dooms the same
     lookups whatever the scheduling. *)
  Robust.Fault.check Robust.Fault.Memo_lookup
    ~key:(string_of_int (Hashtbl.hash key));
  if !Obs.Recorder.enabled then Obs.Metrics.incr "memo.lookups";
  Mutex.lock t.mutex;
  (* A key another domain is computing is waited for, not computed
     again; if that computation fails nothing is stored, and the first
     waiter to wake computes it itself. *)
  while Hashtbl.mem t.pending key do
    Condition.wait t.settled t.mutex
  done;
  match Hashtbl.find_opt t.table key with
  | Some v ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.mutex;
    Obs.Metrics.incr "memo.hits";
    v
  | None ->
    t.misses <- t.misses + 1;
    Hashtbl.replace t.pending key ();
    Mutex.unlock t.mutex;
    Obs.Metrics.incr "memo.misses";
    (match compute () with
    | v ->
      settle t key (Some v);
      v
    | exception e ->
      settle t key None;
      raise e)

let length t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.mutex;
  n

let hits t = t.hits
let misses t = t.misses

type stats = { stat_hits : int; stat_misses : int; stat_entries : int }

let stats t =
  Mutex.lock t.mutex;
  let s = { stat_hits = t.hits; stat_misses = t.misses; stat_entries = Hashtbl.length t.table } in
  Mutex.unlock t.mutex;
  s

let hit_rate t =
  let total = t.hits + t.misses in
  if total = 0 then 0.0 else float_of_int t.hits /. float_of_int total

let clear t =
  Mutex.lock t.mutex;
  let evicted = Hashtbl.length t.table in
  Hashtbl.reset t.table;
  t.hits <- 0;
  t.misses <- 0;
  Mutex.unlock t.mutex;
  if evicted > 0 then Obs.Metrics.add "memo.evicted" evicted
