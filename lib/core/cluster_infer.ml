
let kmeans_1d rng ~k xs =
  let distinct = Array.of_list (List.sort_uniq Float.compare (Array.to_list xs)) in
  let n = Array.length distinct in
  if n = 0 then [||]
  else if n <= k then distinct
  else begin
    (* quantile seeding, then Lloyd iterations *)
    let centres =
      Array.init k (fun i ->
          distinct.(min (n - 1) (i * n / k + (n / (2 * k)))))
    in
    let assign x =
      let best = ref 0 and best_d = ref Float.infinity in
      Array.iteri
        (fun i c ->
          let d = Float.abs (x -. c) in
          if d < !best_d then begin
            best := i;
            best_d := d
          end)
        centres;
      !best
    in
    let changed = ref true in
    let iterations = ref 0 in
    while !changed && !iterations < 50 do
      incr iterations;
      changed := false;
      let sums = Array.make k 0.0 and counts = Array.make k 0 in
      Array.iter
        (fun x ->
          let i = assign x in
          sums.(i) <- sums.(i) +. x;
          counts.(i) <- counts.(i) + 1)
        xs;
      Array.iteri
        (fun i count ->
          if count > 0 then begin
            let mean = sums.(i) /. float_of_int count in
            if Float.abs (mean -. centres.(i)) > 1e-9 then begin
              centres.(i) <- mean;
              changed := true
            end
          end
          else
            (* re-seed an empty cluster on a random point *)
            centres.(i) <- xs.(Stats.Rng.int rng (Array.length xs)))
        counts
    done;
    Array.sort Float.compare centres;
    centres
  end

let nearest centres x =
  let best = ref 0 and best_d = ref Float.infinity in
  Array.iteri
    (fun i c ->
      let d = Float.abs (x -. c) in
      if d < !best_d then begin
        best := i;
        best_d := d
      end)
    centres;
  !best

(* k-medoids over 3-gram profiles for text, with a sampled candidate set
   to stay near O(k * n). *)
module Text_clusters = struct
  type t = { medoids : Textsim.Profile.t array }

  let profile_of s = Textsim.Profile.of_strings [ s ]

  let distance a b = 1.0 -. Textsim.Profile.cosine a b

  let assign t p =
    let best = ref 0 and best_d = ref Float.infinity in
    Array.iteri
      (fun i m ->
        let d = distance p m in
        if d < !best_d then begin
          best := i;
          best_d := d
        end)
      t.medoids;
    !best

  let build rng ~k strings =
    let distinct = Array.of_list (List.sort_uniq String.compare (Array.to_list strings)) in
    let n = Array.length distinct in
    if n = 0 then { medoids = [||] }
    else begin
      let k = min k n in
      (* greedy farthest-point seeding from a random start *)
      let profiles = Array.map profile_of distinct in
      let first = Stats.Rng.int rng n in
      let chosen = ref [ first ] in
      while List.length !chosen < k do
        let best = ref (-1) and best_d = ref neg_infinity in
        Array.iteri
          (fun i p ->
            if not (List.mem i !chosen) then begin
              let d =
                List.fold_left
                  (fun acc j -> Float.min acc (distance p profiles.(j)))
                  Float.infinity !chosen
              in
              if d > !best_d then begin
                best := i;
                best_d := d
              end
            end)
          profiles;
        if !best < 0 then chosen := first :: !chosen (* all identical *)
        else chosen := !best :: !chosen
      done;
      { medoids = Array.of_list (List.rev_map (fun i -> profiles.(i)) !chosen) }
    end
end

let teacher =
  {
    Clustered_view_gen.teacher_name = "cluster";
    prepare =
      (fun table ~h ->
        let column = Clustered_view_gen.column_features table ~h in
        fun ~labels ~train ->
          (* cluster count = number of labels in the training rows *)
          let distinct =
            Array.to_list train |> List.map (Array.get labels) |> List.sort_uniq String.compare
          in
          let k = max 2 (List.length distinct) in
          let rng = Stats.Rng.create (Hashtbl.hash (h, Array.length train)) in
          let features = Array.map (Array.get column) train in
          let numbers =
            Array.to_list features
            |> List.filter_map (function
                 | Learn.Classifier.Number x -> Some x
                 | Learn.Classifier.Text _ | Learn.Classifier.Missing -> None)
            |> Array.of_list
          in
          let texts =
            Array.to_list features
            |> List.filter_map (function
                 | Learn.Classifier.Text s -> Some s
                 | Learn.Classifier.Number _ | Learn.Classifier.Missing -> None)
            |> Array.of_list
          in
          let centres = if Array.length numbers > 0 then kmeans_1d rng ~k numbers else [||] in
          let text_clusters =
            if Array.length texts > 0 then Text_clusters.build rng ~k texts
            else { Text_clusters.medoids = [||] }
          in
          let cluster_of feature =
            match feature with
            | Learn.Classifier.Missing -> None
            | Learn.Classifier.Number x ->
              if Array.length centres = 0 then None else Some (`Num (nearest centres x))
            | Learn.Classifier.Text s ->
              if Array.length text_clusters.Text_clusters.medoids = 0 then None
              else Some (`Text (Text_clusters.assign text_clusters (Text_clusters.profile_of s)))
          in
          (* tag each cluster with its majority training label *)
          let majority = Hashtbl.create 16 in
          Array.iteri
            (fun i feature ->
              match cluster_of feature with
              | None -> ()
              | Some cluster ->
                let label = labels.(train.(i)) in
                let counts =
                  match Hashtbl.find_opt majority cluster with
                  | Some counts -> counts
                  | None ->
                    let counts = Hashtbl.create 4 in
                    Hashtbl.add majority cluster counts;
                    counts
                in
                let c = try Hashtbl.find counts label with Not_found -> 0 in
                Hashtbl.replace counts label (c + 1))
            features;
          let label_of_cluster cluster =
            match Hashtbl.find_opt majority cluster with
            | None -> None
            | Some counts ->
              Hashtbl.fold
                (fun label n best ->
                  match best with
                  | Some (_, bn) when bn > n -> best
                  | Some (bl, bn) when bn = n && String.compare bl label <= 0 -> best
                  | Some _ | None -> Some (label, n))
                counts None
              |> Option.map fst
          in
          fun i ->
            match cluster_of column.(i) with
            | None -> None
            | Some cluster -> label_of_cluster cluster);
  }

let infer =
  {
    Infer.infer_name = "cluster";
    infer =
      (fun ?coded:_ rng config ~source_table ~matches ->
        if matches = [] then []
        else Clustered_view_gen.generate rng config teacher source_table);
  }
