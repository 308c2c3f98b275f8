(** Mutable, mutex-protected accumulator of {!Error.t} issues.

    A pipeline run owns one report; every stage records the units of
    work it quarantined.  Recording order is preserved, so callers that
    record from a deterministic merge loop (index order after a pool
    fan-out) produce reports that are identical whatever the number of
    worker domains. *)

type t

val create : unit -> t
val add : t -> Error.t -> unit

val record :
  t ->
  ?severity:Error.severity ->
  ?table:string ->
  ?attribute:string ->
  ?line:int ->
  Error.stage ->
  string ->
  unit
(** [record t stage message] = [add t (Error.v stage message)]. *)

val issues : t -> Error.t list
(** In recording order. *)

val count : t -> int
