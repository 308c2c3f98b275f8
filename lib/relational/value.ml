type t =
  | Null
  | Int of int
  | Float of float
  | String of string
  | Bool of bool

type ty = Tint | Tfloat | Tstring | Tbool

let type_of = function
  | Null -> None
  | Int _ -> Some Tint
  | Float _ -> Some Tfloat
  | String _ -> Some Tstring
  | Bool _ -> Some Tbool

let ty_to_string = function
  | Tint -> "int"
  | Tfloat -> "float"
  | Tstring -> "string"
  | Tbool -> "bool"

let ty_of_string s =
  match String.lowercase_ascii s with
  | "int" | "integer" -> Some Tint
  | "float" | "real" | "double" -> Some Tfloat
  | "string" | "text" | "varchar" -> Some Tstring
  | "bool" | "boolean" -> Some Tbool
  | _ -> None

(* Rank for the cross-type order; numerics share a rank and compare by
   their float image. *)
let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | String _ -> 3

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | (Null | Bool _ | Int _ | Float _ | String _), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 0
  | Bool b -> Hashtbl.hash b
  | Int i -> Hashtbl.hash (float_of_int i)
  | Float f -> Hashtbl.hash f
  | String s -> Hashtbl.hash s

let is_null = function Null -> true | Bool _ | Int _ | Float _ | String _ -> false

(* The runtime formatter [Printf]'s [%.1f] and [%g] end in, with the
   format strings they build ([%g] is [%.6g]): calling it directly
   skips interpreting the format on every cell, and the bytes are the
   same. *)
external format_float : string -> float -> string = "caml_format_float"

let to_string = function
  | Null -> ""
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then format_float "%.1f" f
    else format_float "%.6g" f
  | String s -> s
  | Bool b -> string_of_bool b

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Null | String _ -> None

let of_string_as ty s =
  if String.length s = 0 then Null
  else
    match ty with
    | Tint -> (match int_of_string_opt (String.trim s) with Some i -> Int i | None -> Null)
    | Tfloat -> (match float_of_string_opt (String.trim s) with Some f -> Float f | None -> Null)
    | Tbool -> (
      match String.lowercase_ascii (String.trim s) with
      | "true" | "1" | "yes" -> Bool true
      | "false" | "0" | "no" -> Bool false
      | _ -> Null)
    | Tstring -> String s

let infer s =
  if String.length s = 0 then Null
  else
    let trimmed = String.trim s in
    match int_of_string_opt trimmed with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt trimmed with
      | Some f -> Float f
      | None -> (
        match String.lowercase_ascii trimmed with
        | "true" -> Bool true
        | "false" -> Bool false
        | _ -> String s))

let pp fmt v = Format.pp_print_string fmt (to_string v)
