(** Deterministic, seed-driven fault injection.

    Each named {!site} marks a place in the pipeline or the I/O layer
    that is allowed to fail (CSV row parsing, a file read, one matcher
    fan-out unit, one pool task, one memo lookup, a store shard
    read/write/rename, a serve-socket read/write).  When a site is
    armed, {!check} decides per *key* — a stable identifier of the unit
    of work, such as ["Inventory.Title"] or a shard file name — whether to
    fire, by hashing [(seed, site, key)] into \[0, 1) and comparing
    against the armed rate.

    Because the decision depends only on the key, never on scheduling,
    the same faults fire for the same inputs at every [jobs] value:
    differential tests can compare the surviving partial results of a
    sequential and a parallel run bit for bit.

    The armed set is global, read through one [Atomic.t] (checks on hot
    paths cost a single load when nothing is armed) and mutated through
    a compare-and-set retry loop, so [arm]/[disarm]/{!with_armed} are
    safe to call concurrently from any thread or domain — the serve
    executor can scope per-request faults with {!with_armed} while
    connection threads arm or disarm chaos sites. *)

type site =
  | Csv_parse  (** per ingested CSV row; key ["table:line"] *)
  | File_read  (** per file-read attempt; key = path *)
  | Matcher_score  (** per StandardMatch fan-out unit; key ["table.attr"] *)
  | Pool_task  (** per index of a result-aware pool fan-out; key = index *)
  | Memo_lookup  (** per memo probe; key = hash of the memo key *)
  | Store_shard_read
      (** per shard-file read; key = the shard's path relative to the
          store directory, e.g. ["shard-0007.dat"], so a seed fires the
          same faults wherever the store lives *)
  | Store_shard_write
      (** per shard-file write; key = the file's path relative to the
          store directory (["shard-0007.dat"], ["store.index"]) *)
  | Store_flush_rename
      (** per atomic rename at flush; key = the target's path relative
          to the store directory *)
  | Socket_read  (** per serve-socket read; key ["conn:<id>"] *)
  | Socket_write  (** per serve-socket reply write; key ["conn:<id>:<n>"] *)
  | Delta_apply  (** per incremental target update; key ["table:generation"] *)

val all_sites : site list
val site_name : site -> string
val site_of_string : string -> site option

exception Injected of { site : site; key : string }

type behaviour =
  | Raise  (** raise {!Injected} at the site (the default) *)
  | Torn_write of float
      (** write sites persist only this fraction of the payload before
          failing — the no-fsync crash model where a rename survives a
          power loss but the data behind it does not; non-write sites
          treat it as {!Raise} *)
  | Latency_ms of int
      (** inject a delay of this many milliseconds, then proceed *)

val behaviour_name : behaviour -> string

type arming = { site : site; rate : float; seed : int }
(** [rate] is the per-key fault probability in \[0, 1].  The wire /
    config shape: armings carried in a request or {!with_armed} always
    fire with behaviour {!Raise}. *)

val arm : ?rate:float -> ?seed:int -> ?behaviour:behaviour -> site -> unit
(** Arm one site ([rate] defaults to [1.0], [seed] to [0], [behaviour]
    to {!Raise}); re-arming replaces the previous arming. *)

val disarm : site -> unit
val disarm_all : unit -> unit
val armed : site -> bool

val check : site -> key:string -> unit
(** Raise {!Injected} iff [site] is armed with a raising behaviour and
    [(seed, site, key)] hashes below the armed rate; burn the injected
    delay for [Latency_ms].  No-op (one atomic load) otherwise. *)

val fire : site -> key:string -> behaviour option
(** The decision without the action: [Some behaviour] iff the armed
    site fires for this key.  Write sites use this to implement
    {!Torn_write} themselves. *)

val with_armed : arming list -> (unit -> 'a) -> 'a
(** Run the thunk with the given sites armed *in addition to* whatever
    is already armed, restoring those sites' previous armings
    afterwards (also on exceptions).  Concurrent changes to other
    sites during the thunk are preserved. *)

val hash01 : seed:int -> key:string -> float
(** Deterministic uniform draw in \[0, 1) from [(seed, key)] —
    the jitter source for client retry backoff, exposed here so every
    deterministic-randomness consumer shares one splitmix64. *)

val spec_of_string : string -> (site * float * int * behaviour, string) result
(** Parse ["site\[:rate\[:seed\[:behaviour\]\]\]"] where behaviour is
    ["raise"], ["torn=F"] or ["latency=N"] — the serve daemon's
    [--fault] flag syntax. *)

val arm_spec : string -> (unit, string) result
(** Parse a spec and arm it. *)
