type row = Value.t array

type t = { schema : Schema.t; rows : row array }

let check_row schema row =
  if Array.length row <> Schema.arity schema then
    invalid_arg
      (Printf.sprintf "Table: row arity %d does not match schema %s (arity %d)"
         (Array.length row) (Schema.name schema) (Schema.arity schema))

let of_rows schema rows =
  Array.iter (check_row schema) rows;
  { schema; rows }

let make schema rows = of_rows schema (Array.of_list rows)

let schema t = t.schema
let name t = Schema.name t.schema
let rows t = t.rows
let row_count t = Array.length t.rows
let arity t = Schema.arity t.schema

let cell t i attr = t.rows.(i).(Schema.index_of t.schema attr)

let column_by_index t i = Array.map (fun row -> row.(i)) t.rows

let column t attr = column_by_index t (Schema.index_of t.schema attr)

let non_null_column t attr =
  column t attr |> Array.to_list |> List.filter (fun v -> not (Value.is_null v)) |> Array.of_list

let value_counts t attr =
  let table = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      if not (Value.is_null v) then begin
        let n = try Hashtbl.find table v with Not_found -> 0 in
        Hashtbl.replace table v (n + 1)
      end)
    (column t attr);
  Hashtbl.fold (fun v n acc -> (v, n) :: acc) table []
  |> List.sort (fun (v1, n1) (v2, n2) ->
         match Int.compare n2 n1 with 0 -> Value.compare v1 v2 | c -> c)

let distinct_values t attr =
  value_counts t attr |> List.map fst |> List.sort Value.compare

let filter t pred = { t with rows = Array.of_list (List.filter pred (Array.to_list t.rows)) }

let project t names =
  let indices = List.map (Schema.index_of t.schema) names in
  let schema = Schema.project t.schema names in
  let rows = Array.map (fun row -> Array.of_list (List.map (fun i -> row.(i)) indices)) t.rows in
  { schema; rows }

let rename t new_name = { t with schema = Schema.rename t.schema new_name }

let append_column t attr derive =
  let schema = Schema.add_attribute t.schema attr in
  let rows = Array.map (fun row -> Array.append row [| derive row |]) t.rows in
  { schema; rows }

let take t n =
  let n = min n (Array.length t.rows) in
  { t with rows = Array.sub t.rows 0 n }

let sub_by_indices t indices = { t with rows = Array.map (fun i -> t.rows.(i)) indices }

let concat_rows a b =
  if not (Schema.equal a.schema b.schema) then
    invalid_arg "Table.concat_rows: schemas differ";
  { a with rows = Array.append a.rows b.rows }

type codes = { codes : int array; card : int }

let column_codes t attr =
  let i = Schema.index_of t.schema attr in
  let ids = Hashtbl.create (Array.length t.rows) in
  let codes =
    Array.map
      (fun row ->
        let key = Value.to_string row.(i) in
        match Hashtbl.find_opt ids key with
        | Some c -> c
        | None ->
          let c = Hashtbl.length ids in
          Hashtbl.add ids key c;
          c)
      t.rows
  in
  { codes; card = Hashtbl.length ids }

(* Dense codes of the rows' (group, code) pairs: rows are counting-sorted
   by group, then the codes met within each group are numbered, so no
   key is hashed and no product of cardinalities is formed. *)
let refine groups col =
  let n = Array.length groups.codes in
  let start = Array.make (groups.card + 1) 0 in
  Array.iter (fun g -> start.(g + 1) <- start.(g + 1) + 1) groups.codes;
  for g = 1 to groups.card do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let fill = Array.sub start 0 groups.card and order = Array.make n 0 in
  Array.iteri
    (fun i g ->
      order.(fill.(g)) <- i;
      fill.(g) <- fill.(g) + 1)
    groups.codes;
  let owner = Array.make col.card (-1) and id = Array.make col.card 0 in
  let codes = Array.make n 0 and card = ref 0 in
  for g = 0 to groups.card - 1 do
    for j = start.(g) to start.(g + 1) - 1 do
      let row = order.(j) in
      let c = col.codes.(row) in
      if owner.(c) <> g then begin
        owner.(c) <- g;
        id.(c) <- !card;
        incr card
      end;
      codes.(row) <- id.(c)
    done
  done;
  { codes; card = !card }

let codes_unique ~rows = function
  | [] -> rows <= 1
  | first :: rest ->
    (* fewer value combinations than rows: some two rows must agree *)
    let combinations =
      List.fold_left (fun acc c -> if acc >= rows then acc else acc * c.card) first.card rest
    in
    combinations >= rows && (List.fold_left refine first rest).card = rows

let is_unique t attrs = codes_unique ~rows:(row_count t) (List.map (column_codes t) attrs)

let pp fmt t =
  Format.fprintf fmt "%a [%d rows]" Schema.pp t.schema (row_count t);
  let shown = min 5 (row_count t) in
  for i = 0 to shown - 1 do
    Format.fprintf fmt "@\n  (%a)"
      (Format.pp_print_array
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
         Value.pp)
      t.rows.(i)
  done
