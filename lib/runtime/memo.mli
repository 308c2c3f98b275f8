(** Mutex-protected memo table with hit/miss accounting.

    Keys are in-memory structural values only — they are hashed with
    [Hashtbl.hash] for the table (and for the fault-injection site's
    per-key arming) but are never serialised or written to disk, so
    their byte layout does not need cross-version stability.  Anything
    that persists across processes must derive its key through a
    canonical textual encoding instead (see
    {!Matching.Profile_cache.subset_digest} and [Store.address]).

    Safe to share across domains, and each key is computed once.
    [find_or_add] runs the compute function {e outside} the lock, so
    misses on distinct keys do not serialise.  A domain that misses a
    key another domain is computing waits for that computation and
    returns its value (counted as a hit).  A computation that raises
    stores nothing: the exception goes to its caller, and each waiter
    retries the lookup, the first to wake computing it afresh.

    Waiting cannot deadlock while nested lookups (a compute function
    looking up other keys) follow an acyclic key order and no compute
    function blocks on {!Pool}, whose workers may be the waiters. *)

type ('k, 'v) t

val create : ?initial_size:int -> unit -> ('k, 'v) t

val find_or_add : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v

val length : ('k, 'v) t -> int

val hits : ('k, 'v) t -> int
(** Lookups answered from the table. *)

val misses : ('k, 'v) t -> int
(** Lookups that had to compute: one per computation, so with a compute
    function that never raises, [misses] is the number of keys ever
    stored (until {!clear}). *)

type stats = { stat_hits : int; stat_misses : int; stat_entries : int }

val stats : ('k, 'v) t -> stats
(** One consistent view of the counters and the entry count, read
    under the table's lock. *)

val hit_rate : ('k, 'v) t -> float
(** [hits / (hits + misses)]; 0 before any lookup. *)

val clear : ('k, 'v) t -> unit
(** Drop entries and reset the counters.  With observability enabled,
    the dropped entries are counted on the [memo.evicted] metric.

    When the recorder ({!Obs.Recorder.enabled}) is on, every lookup
    also feeds the global [memo.lookups] / [memo.hits] / [memo.misses]
    metrics. *)
