(** The `ctxmatch serve` daemon.

    A long-lived process serving ContextMatch over a Unix-domain or TCP
    socket, speaking the line-delimited JSON protocol of {!Protocol}.

    {2 Architecture}

    - One {e accept} loop (the thread that calls {!run}) polls the
      listening socket with a short select timeout, so a stop request —
      from a [shutdown] command or a signal-handler calling {!stop},
      which only flips an atomic flag and is async-signal-safe — is
      noticed within a fraction of a second without interrupting
      anything.
    - One {e connection thread} per client reads request lines,
      answers [ping]/[stats]/[list-targets]/[health]/[shutdown]
      inline, and submits [register-target]/[update-target]/[match]
      work to the executor queue, waiting for the reply before reading
      the next line (per-connection requests are strictly ordered).
    - One {e executor thread} owns all match execution: it pops jobs in
      admission order and runs them over the shared {!Runtime.Pool}
      (resized per request via the [jobs] knob).  Serialising heavy
      work through one thread is what makes the pool's
      one-submitter-at-a-time contract and the fault-injection
      machinery safe under concurrent clients; within a request the
      pool still fans out across domains.
    - Registered targets are
      {!Matching.Standard_match.prepared_target} artefacts: warmed
      columns and store-backed profiles — prepared once,
      shared by every later request, with per-request results
      bit-identical to a one-shot run over the same inputs.  An
      [update-target] request advances a target to a new generation
      through {!Delta.Maintain}: each artefact value stays immutable
      (readers of the previous generation remain valid), the registry
      entry is swapped on the executor thread, and matches after the
      swap score the post-delta target bit-identically to
      re-registering it from scratch.

    {2 Admission control}

    The executor queue is bounded ([queue_capacity]).  A job arriving
    while the queue is full is rejected immediately with a structured
    [busy] error — backpressure costs the client one round-trip, never
    an unbounded queue.  Per-request deadlines start at admission, so
    queue wait counts against the request budget; a request whose
    deadline expires while still queued is answered with a [timeout]
    error without being executed.

    {2 Supervision}

    A [health] request reports ["healthy"] or ["degraded"] plus the
    evidence: store quarantine counts, flush failures and the state of
    every per-target circuit breaker.  Each registered target carries
    a breaker: [breaker_threshold] consecutive scoring failures trip
    it open, and while open every match against that target is
    rejected immediately with a structured [degraded] error.  A
    scoring failure is an unexpected exception escaping the contained
    pipeline, or a run the containment quarantined into producing
    nothing at all (no matches, no standard matches, only issues) —
    the caller got an empty answer either way.  Deadline expiry never
    counts: a timeout is the client's budget, not the target's fault.  After [breaker_cooldown_ms] the next request
    runs as a half-open trial: success closes the breaker, failure
    re-opens it for another cooldown.

    With [flush_every] > 0 the executor flushes the store every N
    completed match requests (instead of only at shutdown), bounding
    how much profile work a crash can lose; a failed flush is recorded
    for [health] and retried on the next flush, never fatal.  Injected
    socket faults ({!Robust.Fault.Socket_read} / [Socket_write]) cost
    the one connection they fire on.

    {2 Shutdown}

    {!stop} (or a [shutdown] request) stops accepting connections,
    drains every admitted job (in-flight requests complete and their
    replies are written), then shuts client sockets down, joins all
    threads, and flushes the store.  {!run} returns only after that. *)

type address =
  | Unix_sock of string  (** path of a Unix-domain socket *)
  | Tcp of string * int  (** host, port *)

val address_to_string : address -> string

type config = {
  address : address;
  default_jobs : int;  (** pool size for requests that omit [jobs] *)
  queue_capacity : int;  (** bounded executor queue (admission control) *)
  default_timeout_ms : int option;  (** deadline for requests that omit [timeout_ms] *)
  max_request_bytes : int;  (** request lines beyond this are rejected as oversized *)
  store_dir : string option;  (** persistent profile store shared by all requests *)
  store_readonly : bool;
  breaker_threshold : int;  (** consecutive failures that trip a target's breaker *)
  breaker_cooldown_ms : int;  (** open-state duration before a half-open trial *)
  flush_every : int;  (** flush the store every N match requests (0: only at shutdown) *)
}

val default_config : address -> config
(** jobs 1, queue 64, no default deadline, 64 MiB request cap, no
    store, breaker threshold 3 / cooldown 1000 ms, shutdown-only
    flush. *)

exception Bind_error of { address : string; reason : string }
(** The listening socket could not be created/bound/listened — most
    commonly the address is already in use.  Raised by {!create}; the
    CLI maps it onto its serve exit code instead of dying on an
    uncaught exception. *)

type t

val create : config -> t
(** Open the store (if any), bind and listen.  A stale Unix-socket file
    left by a crashed daemon (nothing accepts on it) is removed and
    rebound; a {e live} one raises {!Bind_error}. *)

val run : t -> unit
(** Serve until stopped, then drain and clean up.  Blocking: call from
    the thread that owns the daemon's lifetime ({!start} wraps it in a
    thread for in-process use). *)

val start : t -> Thread.t
(** [Thread.create run t] — the in-process form used by tests and the
    bench load generator. *)

val stop : t -> unit
(** Request graceful shutdown.  Only flips an atomic flag:
    async-signal-safe, callable from a [Sys.Signal_handle]. *)

val port : t -> int option
(** Actual bound port ([Tcp] with port 0 binds an ephemeral one). *)

type counters = {
  c_requests : int;  (** request lines parsed (any command) *)
  c_accepted : int;  (** match/register jobs admitted to the queue *)
  c_completed : int;  (** admitted jobs executed to a reply *)
  c_rejected : int;  (** admission rejections: busy or shutting-down *)
  c_protocol_errors : int;  (** invalid/oversized/unknown request lines *)
  c_queue_depth : int;
  c_inflight : int;  (** 0 or 1: the executor's current job *)
  c_connections : int;  (** currently open client connections *)
  c_targets : int;  (** registered prepared targets *)
}

val counters : t -> counters
(** Consistent snapshot of the serving counters (also exposed to
    clients through the [stats] command). *)
