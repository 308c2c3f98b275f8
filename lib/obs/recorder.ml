type event = {
  id : int;
  parent : int;
  name : string;
  path : string;
  ordinal : int;
  domain : int;
  start_ns : int64;
  dur_ns : int64;
}

(* THE hot-path guard.  Instrumentation helpers read this ref first and
   do nothing else when it is false; flipping it is the whole cost of
   carrying observability through the pipeline. *)
let enabled = ref false

let mutex = Mutex.create ()
let epoch = ref 0L
let rev_events : event list ref = ref []
let next_id = ref 0

(* Span identity is (path, ordinal): the nth span opened with a given
   path.  No clock value ever participates in identity, so traces of the
   same run are comparable across machines and repetitions. *)
let ordinals : (string, int) Hashtbl.t = Hashtbl.create 64

let enable () =
  Mutex.lock mutex;
  if not !enabled then begin
    if !epoch = 0L then epoch := Robust.Deadline.now_ns ();
    enabled := true
  end;
  Mutex.unlock mutex

let disable () = enabled := false

let reset () =
  Mutex.lock mutex;
  rev_events := [];
  next_id := 0;
  Hashtbl.reset ordinals;
  epoch := Robust.Deadline.now_ns ();
  Mutex.unlock mutex

let epoch_ns () = !epoch

let fresh_span path =
  Mutex.lock mutex;
  let id = !next_id in
  next_id := id + 1;
  let ordinal = match Hashtbl.find_opt ordinals path with Some n -> n | None -> 0 in
  Hashtbl.replace ordinals path (ordinal + 1);
  Mutex.unlock mutex;
  (id, ordinal)

let record event =
  Mutex.lock mutex;
  rev_events := event :: !rev_events;
  Mutex.unlock mutex

let events () =
  Mutex.lock mutex;
  let l = !rev_events in
  Mutex.unlock mutex;
  List.sort (fun a b -> compare a.id b.id) l

let event_count () =
  Mutex.lock mutex;
  let n = List.length !rev_events in
  Mutex.unlock mutex;
  n
