open Relational

type t = {
  infer_name : string;
  infer :
    ?coded:(string -> Textsim.Coded.t) ->
    Stats.Rng.t ->
    Config.t ->
    source_table:Table.t ->
    matches:Matching.Schema_match.t list ->
    View.family list;
}

let views_of_families families =
  let seen = Hashtbl.create 32 in
  List.concat_map (fun f -> f.View.views) families
  |> List.filter (fun v ->
         let key = Condition.to_string (Condition.normalize (View.condition v)) in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
