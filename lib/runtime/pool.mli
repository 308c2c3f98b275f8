(** Fixed-size [Domain] worker pool with deterministic, index-ordered
    fan-out.

    Work is split into contiguous index chunks and the results are
    written into per-index slots, so every map below returns exactly
    what its sequential counterpart ([Array.init], [List.map], ...)
    would return, regardless of how the chunks are scheduled across
    domains.  The element function must itself be deterministic and
    must not mutate state shared with other elements; shared state it
    only {e reads} must be fully initialised before the call (the task
    hand-off through the pool's mutex establishes the happens-before
    edge that publishes it to the workers).

    A pool of [jobs <= 1] never spawns a domain: every map degrades to
    the plain sequential implementation, byte for byte.

    Batches are submitted from one domain at a time (the pool is not
    re-entrant: do not call a map from inside a task of the same
    pool). *)

type t

val create : jobs:int -> t
(** Spawn [max 0 (jobs - 1)] worker domains; the submitting domain
    works through its own share of the chunks, so [jobs] bounds the
    total number of domains working on a batch.  When the runtime
    refuses a spawn (past its domain limit), the workers already
    spawned are joined and the exception is re-raised, so a later
    [create] can still spawn. *)

val jobs : t -> int

val shutdown : t -> unit
(** Signal and join all workers.  Idempotent.  Maps on a shut-down
    pool run sequentially. *)

val parallel_init : t -> int -> (int -> 'a) -> 'a array
(** [parallel_init t n f] = [Array.init n f] (same order, same
    exceptions — the first raising index re-raises after the batch
    drains). *)

val parallel_init_results :
  t -> ?deadline:Robust.Deadline.t -> int -> (int -> 'a) -> ('a, exn) result array
(** Fault-contained [parallel_init]: every index is computed under its
    own try/catch, so a raising element yields [Error exn] in its slot
    while the rest of the batch completes — no exception escapes.  The
    per-index outcome depends only on the index, so the result array
    (pattern and [Ok] payloads alike) is identical at every [jobs]
    value.  Each index also passes through the
    {!Robust.Fault.Pool_task} injection site (key = the index), and
    once [deadline] expires the remaining indices are quarantined as
    [Error (Robust.Deadline.Expired _)] without being computed —
    deadline placement is the one timing-dependent part. *)

val map_list : t -> ('a -> 'b) -> 'a list -> 'b list
val mapi_list : t -> (int -> 'a -> 'b) -> 'a list -> 'b list
val concat_map_list : t -> ('a -> 'b list) -> 'a list -> 'b list

val map_array_results :
  t -> ?deadline:Robust.Deadline.t -> ('a -> 'b) -> 'a array -> ('b, exn) result array

val map_list_results :
  t -> ?deadline:Robust.Deadline.t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Fault-contained counterparts of {!parallel_init} / [map_list]; see
    {!parallel_init_results}. *)

val get : jobs:int -> t
(** Process-wide cached pool.  Re-sizing (asking for a different
    [jobs]) shuts the previous pool down and spawns a fresh one; the
    cached pool is shut down automatically [at_exit].  The cache itself
    is mutex-protected (the serve daemon resizes it from its executor
    thread), but batches must still be submitted from one thread at a
    time. *)
