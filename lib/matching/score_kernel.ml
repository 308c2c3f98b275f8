type t = {
  index : Textsim.Gram_index.t;
  names : (string * string) array;
  slots : (string * string, int) Hashtbl.t;
}

let build targets =
  let names = Array.map fst targets in
  let index = Textsim.Gram_index.build (Array.map snd targets) in
  let slots = Hashtbl.create (2 * Array.length targets) in
  Array.iteri (fun i name -> Hashtbl.replace slots name i) names;
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.add "kernel.targets" (Array.length names);
    Obs.Metrics.add "kernel.vocabulary" (Textsim.Gram_index.gram_count index);
    Obs.Metrics.add "kernel.arena.bytes" (Textsim.Gram_index.arena_bytes index)
  end;
  { index; names; slots }

let patch t updates =
  let slot_updates =
    List.filter_map
      (fun (name, p) ->
        match Hashtbl.find_opt t.slots name with
        | Some slot -> Some (slot, p)
        | None -> None)
      updates
  in
  if slot_updates = [] then Some t
  else
    match Textsim.Gram_index.patch t.index slot_updates with
    | None -> None
    | Some index ->
      if !Obs.Recorder.enabled then
        Obs.Metrics.add "kernel.patched" (List.length slot_updates);
      Some { t with index }

let slot t ~table ~attr = Hashtbl.find_opt t.slots (table, attr)

(* The kernel boundary rejects NaN rather than letting it flow into
   z-normalisation: cosine over non-negative counts cannot produce NaN
   (all zero-denominator paths return 0.0 — see Gram_index.scores),
   so one here means a broken profile or index invariant, and a NaN
   would silently poison every downstream confidence while comparing
   unequal to everything. *)
let reject_nan ~ctx s =
  if Float.is_nan s then invalid_arg ("Score_kernel." ^ ctx ^ ": NaN cosine")

let scores t cand =
  let cosines, touched = Textsim.Gram_index.scores t.index cand in
  Array.iter (reject_nan ~ctx:"scores") cosines;
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.incr "kernel.batch.queries";
    Obs.Metrics.add "kernel.batch.scored" touched;
    Obs.Metrics.add "kernel.batch.pruned" (Array.length cosines - touched)
  end;
  cosines

let top_k t cand ~k ~tau =
  let all, touched = Textsim.Gram_index.scores t.index cand in
  let top = Textsim.Gram_index.select all ~k ~tau in
  List.iter (fun (_, s) -> reject_nan ~ctx:"top_k" s) top;
  if !Obs.Recorder.enabled then begin
    Obs.Metrics.incr "kernel.topk.queries";
    Obs.Metrics.add "kernel.topk.scored" touched;
    Obs.Metrics.add "kernel.topk.pruned" (Array.length all - touched)
  end;
  List.map (fun (i, s) -> (t.names.(i), s)) top
