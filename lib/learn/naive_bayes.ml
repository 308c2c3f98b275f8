type label_stats = {
  mutable docs : int;  (** training documents with this label *)
  mutable tokens : int;  (** total token occurrences under this label *)
  counts : int array;  (** per-id occurrence counts *)
  mutable max_count : int;
  mutable denom : float;
  mutable logs : float array;
      (** [logs.(n) = log ((n + alpha) / denom)] for n in
          [0 .. max_count], filled on first use; NaN = not yet *)
}

type t = {
  alpha : float;
  size : int;
  by_label : (string, label_stats) Hashtbl.t;
  seen : Bytes.t;  (** ids seen in training *)
  mutable vocabulary : int;  (** distinct ids seen in training *)
  mutable total_docs : int;
  fresh : bool Atomic.t;  (** denominators and log tables reflect all training *)
}

let create ?(alpha = 1.0) ~size () =
  {
    alpha;
    size;
    by_label = Hashtbl.create 16;
    seen = Bytes.make size '\000';
    vocabulary = 0;
    total_docs = 0;
    fresh = Atomic.make false;
  }

let stats_for t label =
  match Hashtbl.find_opt t.by_label label with
  | Some s -> s
  | None ->
    let s =
      {
        docs = 0;
        tokens = 0;
        counts = Array.make t.size 0;
        max_count = 0;
        denom = Float.nan;
        logs = [||];
      }
    in
    Hashtbl.add t.by_label label s;
    s

let train t ~label ids =
  let s = stats_for t label in
  s.docs <- s.docs + 1;
  t.total_docs <- t.total_docs + 1;
  Array.iter
    (fun id ->
      if Bytes.get t.seen id = '\000' then begin
        Bytes.set t.seen id '\001';
        t.vocabulary <- t.vocabulary + 1
      end;
      let n = s.counts.(id) + 1 in
      s.counts.(id) <- n;
      if n > s.max_count then s.max_count <- n)
    ids;
  s.tokens <- s.tokens + Array.length ids;
  Atomic.set t.fresh false

let labels t =
  Hashtbl.fold (fun label _ acc -> label :: acc) t.by_label [] |> List.sort String.compare

let document_count t = t.total_docs

(* Training changes every denominator (through the vocabulary size), so
   the first classification after training resets every label's table.
   Concurrent classifications may both reset and fill it; they write the
   same values, and a NaN read just recomputes. *)
let refresh t =
  let vocab = float_of_int (max 1 t.vocabulary) in
  Hashtbl.iter
    (fun _ s ->
      s.denom <- float_of_int s.tokens +. (t.alpha *. vocab);
      s.logs <- Array.make (s.max_count + 1) Float.nan)
    t.by_label;
  Atomic.set t.fresh true

(* An id outside the dictionary was never trained on: count 0. *)
let log_term t s id =
  let n = if id < 0 || id >= t.size then 0 else s.counts.(id) in
  let logs = s.logs in
  let v = logs.(n) in
  if Float.is_nan v then begin
    let v = log ((float_of_int n +. t.alpha) /. s.denom) in
    logs.(n) <- v;
    v
  end
  else v

let log_posteriors t ids =
  if t.total_docs = 0 then []
  else begin
    if not (Atomic.get t.fresh) then refresh t;
    let scored =
      Hashtbl.fold
        (fun label s acc ->
          let prior = log (float_of_int s.docs /. float_of_int t.total_docs) in
          let log_likelihood = Array.fold_left (fun acc id -> acc +. log_term t s id) 0.0 ids in
          (label, prior +. log_likelihood) :: acc)
        t.by_label []
    in
    (* Best first; ties go to the more frequent label, then lexicographic,
       so classification is deterministic. *)
    List.sort
      (fun (l1, s1) (l2, s2) ->
        match Float.compare s2 s1 with
        | 0 -> (
          let d1 = (Hashtbl.find t.by_label l1).docs and d2 = (Hashtbl.find t.by_label l2).docs in
          match Int.compare d2 d1 with 0 -> String.compare l1 l2 | c -> c)
        | c -> c)
      scored
  end

let classify t ids =
  match log_posteriors t ids with [] -> None | (label, _) :: _ -> Some label

let classify_with_margin t ids =
  match log_posteriors t ids with
  | [] -> None
  | [ (label, _) ] -> Some (label, Float.infinity)
  | (label, s1) :: (_, s2) :: _ -> Some (label, s1 -. s2)
