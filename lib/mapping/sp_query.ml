open Relational

type t = {
  select : string list option;
  from : string;
  where : Condition.t;
}

let select_all from where = { select = None; from; where }
let select_some attrs from where = { select = Some attrs; from; where }

let eval t instance =
  if not (String.equal (Table.name instance) t.from) then
    invalid_arg
      (Printf.sprintf "Sp_query.eval: query is over %s, got instance of %s" t.from
         (Table.name instance));
  let schema = Table.schema instance in
  let filtered = Table.filter instance (Condition.eval t.where schema) in
  match t.select with
  | None -> filtered
  | Some attrs -> Table.project filtered attrs

let to_string t =
  let select =
    match t.select with None -> "*" | Some attrs -> String.concat ", " attrs
  in
  match t.where with
  | Condition.True -> Printf.sprintf "select %s from %s" select t.from
  | c -> Printf.sprintf "select %s from %s where %s" select t.from (Condition.to_string c)

let pp fmt t = Format.pp_print_string fmt (to_string t)
