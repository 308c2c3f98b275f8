(* Writes go to a per-domain shard (a domain-local hashtable of cells),
   so the hot path never takes a lock and parallel runs do not contend;
   [snapshot] merges the shards.  Shards are registered in a global list
   at domain initialisation and kept alive there, so counts survive the
   domains that produced them (worker domains die on pool resize). *)

let bucket_count = 64

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* power-of-two buckets: index = frexp exponent *)
}

type cell = Counter of { mutable c : int } | Histogram of hist

type shard = (string, cell) Hashtbl.t

let registry_mutex = Mutex.create ()
let shards : shard list ref = ref []
let gauges : (string, float) Hashtbl.t = Hashtbl.create 16

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s = Hashtbl.create 32 in
      Mutex.lock registry_mutex;
      shards := s :: !shards;
      Mutex.unlock registry_mutex;
      s)

let cell name make =
  let s = Domain.DLS.get shard_key in
  match Hashtbl.find_opt s name with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.add s name c;
    c

let kind_error name =
  invalid_arg (Printf.sprintf "Obs.Metrics: %s used with two different kinds" name)

let add name by =
  if !Recorder.enabled then
    match cell name (fun () -> Counter { c = 0 }) with
    | Counter r -> r.c <- r.c + by
    | Histogram _ -> kind_error name

let incr name = add name 1

let fresh_hist () =
  {
    h_count = 0;
    h_sum = 0.0;
    h_min = infinity;
    h_max = neg_infinity;
    h_buckets = Array.make bucket_count 0;
  }

(* Bucket upper bound is 2^i: frexp maps v in (2^(i-1), 2^i] to
   exponent i.  Non-positive values land in bucket 0. *)
let bucket_of v =
  if not (v > 0.0) then 0
  else
    let _, e = Float.frexp v in
    if e < 0 then 0 else if e >= bucket_count then bucket_count - 1 else e

let observe name v =
  if !Recorder.enabled then
    match cell name (fun () -> Histogram (fresh_hist ())) with
    | Histogram h ->
      h.h_count <- h.h_count + 1;
      h.h_sum <- h.h_sum +. v;
      if v < h.h_min then h.h_min <- v;
      if v > h.h_max then h.h_max <- v;
      let b = bucket_of v in
      h.h_buckets.(b) <- h.h_buckets.(b) + 1
    | Counter _ -> kind_error name

let observe_ns name ns = observe name (Int64.to_float ns)

let set_gauge name v =
  if !Recorder.enabled then begin
    Mutex.lock registry_mutex;
    Hashtbl.replace gauges name v;
    Mutex.unlock registry_mutex
  end

(* -- read side ---------------------------------------------------------- *)

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list; (* (upper bound, count), non-zero, ascending *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}

let snapshot () =
  Mutex.lock registry_mutex;
  let shard_list = !shards in
  let gauge_list =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Mutex.unlock registry_mutex;
  let counters : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let hists : (string, hist) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun name c ->
          match c with
          | Counter r ->
            let prev = Option.value ~default:0 (Hashtbl.find_opt counters name) in
            Hashtbl.replace counters name (prev + r.c)
          | Histogram h ->
            let acc =
              match Hashtbl.find_opt hists name with
              | Some a -> a
              | None ->
                let a = fresh_hist () in
                Hashtbl.add hists name a;
                a
            in
            acc.h_count <- acc.h_count + h.h_count;
            acc.h_sum <- acc.h_sum +. h.h_sum;
            if h.h_min < acc.h_min then acc.h_min <- h.h_min;
            if h.h_max > acc.h_max then acc.h_max <- h.h_max;
            Array.iteri (fun i n -> acc.h_buckets.(i) <- acc.h_buckets.(i) + n) h.h_buckets)
        s)
    shard_list;
  let sorted tbl view =
    Hashtbl.fold (fun k v acc -> (k, view v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let summarise h =
    let buckets = ref [] in
    for i = bucket_count - 1 downto 0 do
      if h.h_buckets.(i) > 0 then
        buckets := (Float.ldexp 1.0 i, h.h_buckets.(i)) :: !buckets
    done;
    {
      count = h.h_count;
      sum = h.h_sum;
      min = (if h.h_count = 0 then 0.0 else h.h_min);
      max = (if h.h_count = 0 then 0.0 else h.h_max);
      buckets = !buckets;
    }
  in
  {
    counters = sorted counters Fun.id;
    gauges = gauge_list;
    histograms = sorted hists summarise;
  }

let counter_value snap name =
  Option.value ~default:0 (List.assoc_opt name snap.counters)

let reset () =
  Mutex.lock registry_mutex;
  List.iter Hashtbl.reset !shards;
  Hashtbl.reset gauges;
  Mutex.unlock registry_mutex
