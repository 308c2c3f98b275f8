(* In-memory span recorder for the traced run.

   Spans wrap calls into the program's public functions from the
   benchmark's side; nothing inside the library is instrumented.  Each
   span has a name, its start and end on the monotonic clock, the span
   that caused it (its parent) and the iteration it belongs to.  Spans
   stay in memory until {!write} dumps them at the end of the run.

   Only the thread that drives the traced pipeline records spans (the
   pool's workers run inside a span, never open one), so the recorder
   needs no locking. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  iteration : int;
  name : string;
  start_ns : int64;
  stop_ns : int64;
}

let now_ns = Robust.Deadline.now_ns
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let iteration = ref 0

let with_span name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start_ns = now_ns () in
  Fun.protect f ~finally:(fun () ->
      let stop_ns = now_ns () in
      stack := List.tl !stack;
      recorded := { id; parent; iteration = !iteration; name; start_ns; stop_ns } :: !recorded)

let duration_ms s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) /. 1e6

(* Self time of every span of one iteration, summed per span name: a
   span's duration minus the part its children cover (children run
   inside their parent and one after another, so their durations add
   up to exactly the covered part). *)
let self_ms_by_name ~iteration:it =
  let spans = List.filter (fun s -> s.iteration = it) !recorded in
  let child_ms = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ms s.parent
          (duration_ms s +. Option.value (Hashtbl.find_opt child_ms s.parent) ~default:0.0))
    spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self = duration_ms s -. Option.value (Hashtbl.find_opt child_ms s.id) ~default:0.0 in
      Hashtbl.replace by_name s.name
        (self +. Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0))
    spans;
  by_name

let root_ms ~iteration:it =
  List.fold_left
    (fun acc s -> if s.iteration = it && s.parent < 0 then acc +. duration_ms s else acc)
    0.0 !recorded

(* One JSON object per span, oldest first. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      output_string oc
        (Serve.Json.to_string
           (Serve.Json.Obj
              [
                ("id", Serve.Json.Int s.id);
                ("parent", Serve.Json.Int s.parent);
                ("iteration", Serve.Json.Int s.iteration);
                ("name", Serve.Json.String s.name);
                ("start_ns", Serve.Json.String (Int64.to_string s.start_ns));
                ("dur_ns", Serve.Json.String (Int64.to_string (Int64.sub s.stop_ns s.start_ns)));
              ]));
      output_char oc '\n')
    (List.rev !recorded);
  close_out oc
