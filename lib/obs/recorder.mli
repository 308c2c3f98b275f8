(** Global observability switch and the span-event sink.

    The recorder is process-wide: one [enabled] flag, one event buffer.
    Every instrumentation helper in {!Trace} and {!Metrics} reads
    [enabled] first and the disabled path does nothing else, so
    instrumented code costs a single branch when observability is off —
    matcher output is byte-identical either way.

    Span identity is deterministic: [(path, ordinal)] where [ordinal]
    counts spans opened with that path, in arrival order.  Clock values
    appear only in the [start_ns]/[dur_ns] payload, never in identity,
    so differential tests that compare structure keep passing.

    Thread-safety: events may be recorded from any domain (the buffer is
    mutex-protected); [enable]/[disable]/[reset]/[events] are meant to
    be called from the main domain between parallel batches. *)

type event = {
  id : int;  (** creation order, process-wide *)
  parent : int;  (** id of the enclosing span, [-1] for roots *)
  name : string;  (** leaf name, e.g. ["pool.chunk"] *)
  path : string;  (** ["/"]-joined ancestor names ending in [name] *)
  ordinal : int;  (** nth span with this [path], from 0 *)
  domain : int;  (** numeric id of the recording domain *)
  start_ns : int64;  (** monotonic start, relative to the recorder epoch *)
  dur_ns : int64;
}

val enabled : bool ref
(** The hot-path guard; read it directly ([!Obs.Recorder.enabled]) in
    instrumentation sites.  Mutate through {!enable}/{!disable}. *)

val enable : unit -> unit
(** Switch recording on; fixes the epoch on first use. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded events, restart ids and ordinals, re-anchor the
    epoch.  Metrics live in {!Metrics} and have their own [reset]. *)

val epoch_ns : unit -> int64

val fresh_span : string -> int * int
(** [fresh_span path] allocates [(id, ordinal)] for a span opening at
    [path].  Used by {!Trace}; exposed for custom instrumentation. *)

val record : event -> unit

val events : unit -> event list
(** All recorded events, sorted by id (creation order). *)

val event_count : unit -> int
