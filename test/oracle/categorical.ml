open Relational

let is_categorical ?(params = Categorical.default_params) table attr =
  let counts = Table.value_counts table attr in
  let n = Table.row_count table in
  let distinct = List.length counts in
  if n = 0 || distinct < 2 || distinct > params.Categorical.max_cardinality then false
  else begin
    let heavy_threshold =
      max params.min_rows_per_value
        (int_of_float (Float.ceil (params.heavy_value_share *. float_of_int n)))
    in
    let heavy = List.length (List.filter (fun (_, c) -> c >= heavy_threshold) counts) in
    heavy >= params.min_heavy_values
    && float_of_int heavy /. float_of_int distinct > params.heavy_fraction
  end
