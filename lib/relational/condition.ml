type t =
  | True
  | Eq of string * Value.t
  | In of string * Value.t list
  | And of t * t
  | Or of t * t
  | Not of t

let rec eval cond schema row =
  match cond with
  | True -> true
  | Eq (attr, v) ->
    let cell = row.(Schema.index_of schema attr) in
    (not (Value.is_null cell)) && Value.equal cell v
  | In (attr, vs) ->
    let cell = row.(Schema.index_of schema attr) in
    (not (Value.is_null cell)) && List.exists (Value.equal cell) vs
  | And (a, b) -> eval a schema row && eval b schema row
  | Or (a, b) -> eval a schema row || eval b schema row
  | Not a -> not (eval a schema row)

let attributes cond =
  let rec collect acc = function
    | True -> acc
    | Eq (attr, _) | In (attr, _) -> attr :: acc
    | And (a, b) | Or (a, b) -> collect (collect acc a) b
    | Not a -> collect acc a
  in
  collect [] cond |> List.sort_uniq String.compare

let arity cond = List.length (attributes cond)

let is_simple = function
  | True | Eq _ -> true
  | In _ | And _ | Or _ | Not _ -> false

let rec is_simple_disjunctive cond =
  match cond with
  | True | Eq _ | In _ -> arity cond <= 1
  | Or (a, b) -> is_simple_disjunctive a && is_simple_disjunctive b && arity cond <= 1
  | And _ | Not _ -> false

let conjoin a b =
  match (a, b) with
  | True, c | c, True -> c
  | _, _ -> And (a, b)

let disjoin_values attr vs =
  match List.sort_uniq Value.compare vs with
  | [ v ] -> Eq (attr, v)
  | vs -> In (attr, vs)

let selected_values cond =
  let rec collect = function
    | Eq (attr, v) -> Some (attr, [ v ])
    | In (attr, vs) -> Some (attr, vs)
    | Or (a, b) -> (
      match (collect a, collect b) with
      | Some (attr1, vs1), Some (attr2, vs2) when String.equal attr1 attr2 ->
        Some (attr1, vs1 @ vs2)
      | _, _ -> None)
    | True | And _ | Not _ -> None
  in
  match collect cond with
  | Some (attr, vs) -> Some (attr, List.sort_uniq Value.compare vs)
  | None -> None

let rec normalize cond =
  match cond with
  | True | Eq _ -> cond
  | In (attr, vs) -> disjoin_values attr vs
  | Not a -> Not (normalize a)
  | And (a, b) -> conjoin (normalize a) (normalize b)
  | Or (a, b) -> (
    match selected_values cond with
    | Some (attr, vs) -> disjoin_values attr vs
    | None -> Or (normalize a, normalize b))

let equal a b = normalize a = normalize b

(* A string that would read back as list punctuation, or as nothing at
   all, is single-quoted with [''] for a quote — the literal form
   [Condition_parser] reads.  Every other value prints bare.  Without
   the quotes, [k IN ('a, b', c)] would print as [k IN (a, b, c)], and
   view names and view dedup both key on the printed form. *)
let value_to_string = function
  | Value.String s
    when s = "" || String.exists (function ',' | '(' | ')' | '\'' -> true | _ -> false) s ->
    "'" ^ String.concat "''" (String.split_on_char '\'' s) ^ "'"
  | v -> Value.to_string v

let rec to_string = function
  | True -> "true"
  | Eq (attr, v) -> Printf.sprintf "%s = %s" attr (value_to_string v)
  | In (attr, vs) ->
    Printf.sprintf "%s IN (%s)" attr (String.concat ", " (List.map value_to_string vs))
  | And (a, b) -> Printf.sprintf "(%s AND %s)" (to_string a) (to_string b)
  | Or (a, b) -> Printf.sprintf "(%s OR %s)" (to_string a) (to_string b)
  | Not a -> Printf.sprintf "NOT (%s)" (to_string a)

let pp fmt cond = Format.pp_print_string fmt (to_string cond)
