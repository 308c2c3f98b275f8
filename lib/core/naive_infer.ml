open Relational

(* Enumerate set partitions by inserting each element either into one of
   the existing blocks or as a new block (restricted-growth order). *)
let partitions items ~limit =
  let count = ref 0 in
  let results = ref [] in
  let rec go remaining blocks =
    if !count >= limit then ()
    else
      match remaining with
      | [] ->
        incr count;
        results := List.rev_map List.rev blocks :: !results
      | item :: rest ->
        let rec insert prefix = function
          | [] -> ()
          | block :: others ->
            if !count < limit then begin
              go rest (List.rev_append prefix ((item :: block) :: others));
              insert (block :: prefix) others
            end
        in
        insert [] blocks;
        if !count < limit then go rest (blocks @ [ [ item ] ])
  in
  (match items with [] -> () | first :: rest -> go rest [ [ first ] ]);
  List.rev !results

let bell_number n =
  (* Bell triangle. *)
  if n <= 0 then 1
  else begin
    let prev = ref [| 1 |] in
    for _ = 2 to n do
      let row = Array.make (Array.length !prev + 1) 0 in
      row.(0) <- !prev.(Array.length !prev - 1);
      Array.iteri (fun i v -> row.(i + 1) <- row.(i) + v) !prev;
      prev := row
    done;
    !prev.(Array.length !prev - 1)
  end

let infer =
  {
    Infer.infer_name = "naive";
    infer =
      (fun ?coded:_ _rng (config : Config.t) ~source_table ~matches ->
        if matches = [] then []
        else begin
          let categorical =
            Categorical.categorical_attributes ~params:config.Config.categorical_params
              source_table
          in
          List.concat_map
            (fun l ->
              let values = Table.distinct_values source_table l in
              let simple = View.partition_family source_table l in
              if not config.Config.early_disjuncts then [ simple ]
              else begin
                (* Every partitioning of the values (§3.2.1), capped.  The
                   all-singletons partition duplicates [simple] and is
                   filtered out by condition-level dedup downstream. *)
                let families =
                  partitions values ~limit:config.Config.max_naive_partitions
                  |> List.filter (fun blocks -> List.exists (fun b -> List.length b > 1) blocks)
                  |> List.map (fun blocks -> View.family_of_values source_table l blocks)
                in
                simple :: families
              end)
            categorical
        end);
  }
