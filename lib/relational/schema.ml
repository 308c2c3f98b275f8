type t = { name : string; attrs : Attribute.t array; index : (string, int) Hashtbl.t }

let build_index attrs =
  let index = Hashtbl.create (Array.length attrs) in
  Array.iteri
    (fun i (a : Attribute.t) ->
      if Hashtbl.mem index a.name then
        invalid_arg (Printf.sprintf "Schema.make: duplicate attribute %s" a.name);
      Hashtbl.add index a.name i)
    attrs;
  index

let make name attrs =
  let attrs = Array.of_list attrs in
  { name; attrs; index = build_index attrs }

let name t = t.name
let attributes t = t.attrs
let arity t = Array.length t.attrs

let index_of_opt t attr_name = Hashtbl.find_opt t.index attr_name

let index_of t attr_name =
  match index_of_opt t attr_name with Some i -> i | None -> raise Not_found

let attribute t attr_name = t.attrs.(index_of t attr_name)

let mem t attr_name = Hashtbl.mem t.index attr_name

let attribute_names t = Array.to_list (Array.map (fun (a : Attribute.t) -> a.name) t.attrs)

let rename t new_name = { t with name = new_name }

let project t names =
  let attrs = List.map (attribute t) names in
  make t.name attrs

let add_attribute t attr =
  make t.name (Array.to_list t.attrs @ [ attr ])

let equal a b =
  String.equal a.name b.name
  && Array.length a.attrs = Array.length b.attrs
  && Array.for_all2 Attribute.equal a.attrs b.attrs

let pp fmt t =
  Format.fprintf fmt "%s(%a)" t.name
    (Format.pp_print_array
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       Attribute.pp)
    t.attrs
