(** Typed counters, gauges and histograms in a thread-safe registry.

    Counter and histogram writes go to a {e per-domain shard} (a
    domain-local table), so the hot path takes no lock and parallel
    [--jobs] runs neither contend nor drop updates; {!snapshot} merges
    the shards at read time.  Shards outlive their domains, so counts
    from worker domains that have since been joined still appear in the
    merge.  Gauges are set rarely and live in one mutex-protected
    table (last write wins).

    Every operation is a no-op (one branch) while the
    {!Recorder.enabled} flag is off.  Metric identity is the name
    string alone — use stable, dot-separated names ([pool.tasks],
    [cache.profile.hits]); never embed timestamps or ids.

    Read-side contract: call {!snapshot} and {!reset} from the main
    domain while no parallel batch is in flight (between
    [Runtime.Pool] calls); writes may come from any domain. *)

val add : string -> int -> unit
(** Add to a counter, creating it at 0 on first use. *)

val incr : string -> unit
(** [incr name] = [add name 1]. *)

val observe : string -> float -> unit
(** Record one histogram sample (power-of-two buckets, plus
    count/sum/min/max). *)

val observe_ns : string -> int64 -> unit
(** {!observe} for nanosecond durations. *)

val set_gauge : string -> float -> unit
(** Set a gauge; last write wins across domains. *)

type hist_summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  buckets : (float * int) list;
      (** non-empty power-of-two buckets as [(upper bound, count)],
          ascending *)
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_summary) list;
}
(** All association lists sorted by name. *)

val snapshot : unit -> snapshot
(** Merge every domain's shard into one consistent view. *)

val counter_value : snapshot -> string -> int
(** Counter by name, 0 when absent. *)

val reset : unit -> unit
(** Zero every shard and drop all gauges. *)
