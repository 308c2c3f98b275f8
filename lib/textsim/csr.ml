open Bigarray

type ints = {
  i_offsets : (int, int_elt, c_layout) Array1.t;
  i_ids : (int32, int32_elt, c_layout) Array1.t;
  i_vals : (int32, int32_elt, c_layout) Array1.t;
}

let offsets_of_lengths lengths =
  let rows = Array.length lengths in
  let offsets = Array1.create Int c_layout (rows + 1) in
  Array1.unsafe_set offsets 0 0;
  for r = 0 to rows - 1 do
    Array1.unsafe_set offsets (r + 1) (Array1.unsafe_get offsets r + lengths.(r))
  done;
  offsets

let pack_ints rows =
  let offsets = offsets_of_lengths (Array.map (fun (ids, _) -> Array.length ids) rows) in
  let nnz = Array1.get offsets (Array.length rows) in
  let ids = Array1.create Int32 c_layout nnz in
  let vals = Array1.create Int32 c_layout nnz in
  Array.iteri
    (fun r (rids, rvals) ->
      let base = Array1.get offsets r in
      Array.iteri
        (fun k id ->
          Array1.unsafe_set ids (base + k) (Int32.of_int id);
          Array1.unsafe_set vals (base + k) (Int32.of_int rvals.(k)))
        rids)
    rows;
  { i_offsets = offsets; i_ids = ids; i_vals = vals }

let ints_row a r =
  let lo = Array1.get a.i_offsets r and hi = Array1.get a.i_offsets (r + 1) in
  let n = hi - lo in
  let ids = Array.init n (fun k -> Int32.to_int (Array1.unsafe_get a.i_ids (lo + k))) in
  let vals = Array.init n (fun k -> Int32.to_int (Array1.unsafe_get a.i_vals (lo + k))) in
  (ids, vals)
