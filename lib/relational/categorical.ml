type params = {
  heavy_value_share : float;
  heavy_fraction : float;
  min_heavy_values : int;
  min_rows_per_value : int;
  max_cardinality : int;
}

let default_params =
  {
    heavy_value_share = 0.01;
    heavy_fraction = 0.10;
    min_heavy_values = 2;
    min_rows_per_value = 2;
    max_cardinality = 12;
  }

exception Too_many_values

let is_categorical ?(params = default_params) table attr =
  let i = Schema.index_of (Table.schema table) attr in
  (* Value-keyed counts, as in Table.value_counts; past max_cardinality
     distinct values the verdict is already false, so counting stops. *)
  let counts = Hashtbl.create 16 in
  match
    Array.iter
      (fun row ->
        let v = row.(i) in
        if not (Value.is_null v) then
          match Hashtbl.find_opt counts v with
          | Some c -> Hashtbl.replace counts v (c + 1)
          | None ->
            if Hashtbl.length counts >= params.max_cardinality then raise Too_many_values;
            Hashtbl.add counts v 1)
      (Table.rows table)
  with
  | exception Too_many_values -> false
  | () ->
    let n = Table.row_count table in
    let distinct = Hashtbl.length counts in
    if n = 0 || distinct < 2 then false
    else begin
      let heavy_threshold =
        max params.min_rows_per_value
          (int_of_float (Float.ceil (params.heavy_value_share *. float_of_int n)))
      in
      let heavy = Hashtbl.fold (fun _ c acc -> if c >= heavy_threshold then acc + 1 else acc) counts 0 in
      heavy >= params.min_heavy_values
      && float_of_int heavy /. float_of_int distinct > params.heavy_fraction
    end

let categorical_attributes ?(params = default_params) table =
  Table.schema table |> Schema.attribute_names
  |> List.filter (is_categorical ~params table)
