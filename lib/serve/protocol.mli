(** The serve daemon's line-delimited JSON protocol.

    One request per line, one response line per request, in order.
    Requests are objects with a ["cmd"] field:

    - [{"cmd":"ping"}] — liveness probe.
    - [{"cmd":"register-target","name":N,"tables":[{"name":..,"csv":..}],
       "kernel":B}] — prepare a target schema once; later matches
      reference it by name.  Re-registering a name replaces it.
    - [{"cmd":"match","target":N,"tables":[...],"tau":..,"omega":..,
       "late":B,"select":S,"algorithm":A,"seed":I,"jobs":I,
       "timeout_ms":I,"kernel":B,"lenient":B,"faults":[...]}] — run
      ContextMatch of the payload tables (the source sample) against a
      registered target.  Every knob mirrors the one-shot CLI flag of
      the same name and defaults identically.
    - [{"cmd":"update-target","target":N,"table":T,
       "append_rows":[[..]],"delete_rows":[I,..]}] — apply one delta to
      a registered target's table: append the given rows (cells typed
      against the table schema: JSON ints for int attributes, ints or
      floats for float attributes, strings for string attributes,
      booleans for bool attributes, [null] anywhere) and delete the
      given row indices (relative to the table {e before} the update).
      The target's prepared artefact is patched in O(delta) — or
      rebuilt when the delta is too churny or holds unseen grams — and
      subsequent matches see the new generation.
    - [{"cmd":"list-targets"}] — the registry: every target's name,
      update generation and circuit-breaker state.
    - [{"cmd":"stats"}] — server counters and queue state.
    - [{"cmd":"health"}] — supervision probe: overall
      ["healthy"]/["degraded"] status, store quarantine counts, flush
      failures and per-target circuit-breaker states.
    - [{"cmd":"shutdown"}] — begin graceful shutdown (drain, flush).

    Every parse or validation failure is a structured {!reject} carrying
    a {!Robust.Error.t} (stage [Serve]) plus a machine-readable code;
    the daemon replies and lives on. *)

type table_payload = { tp_name : string; tp_csv : string }

type match_request = {
  mr_target : string;  (** registered target name *)
  mr_tables : table_payload list;  (** source sample *)
  mr_tau : float;
  mr_omega : float;
  mr_late : bool;
  mr_select : Ctxmatch.Config.select_policy;
  mr_algorithm : [ `Naive | `Src_class | `Tgt_class | `Cluster ];
  mr_seed : int;
  mr_jobs : int option;  (** [None]: the server's default *)
  mr_timeout_ms : int option;  (** [None]: the server's default *)
  mr_kernel : bool;
  mr_lenient : bool;
  mr_faults : Robust.Fault.arming list;
      (** fault sites to arm for this request only (the deterministic
          fault harness drives the daemon through this) *)
  mr_plan : Matching.Standard_match.filter option option;
      (** candidate-filter override for this request ("plan" spec
          string: default | filter[:K[,TAU]]); [None] uses the target's
          registered plan *)
}

type update_request = {
  ur_target : string;  (** registered target name *)
  ur_table : string;  (** table within the target *)
  ur_appends : Json.t list list;
      (** appended rows, still raw JSON — typing a cell needs the
          target table's schema, which only the server registry knows *)
  ur_deletes : int list;  (** row indices, relative to the old table *)
}

type request =
  | Ping
  | Register_target of {
      rt_name : string;
      rt_tables : table_payload list;
      rt_kernel : bool;
      rt_plan : Matching.Standard_match.filter option;
          (** default candidate filter for matches against this target
              (optional "plan" field; no filter when absent) *)
    }
  | Match of match_request
  | Update_target of update_request
  | List_targets
  | Stats
  | Health
  | Shutdown

type reject = {
  rj_code : string;
      (** machine-readable: [invalid-json], [bad-request],
          [unknown-command], [oversized], [busy], [unknown-target],
          [shutting-down], [timeout], [degraded] (circuit breaker
          open), [internal] *)
  rj_error : Robust.Error.t;
}

val reject : ?severity:Robust.Error.severity -> code:string -> string -> reject

val request_of_line : string -> (request, reject) result
(** Parse and validate one request line. *)

val reject_to_json : reject -> Json.t
(** [{"ok":false,"code":..,"error":{"stage","severity","message"}}]. *)

val error_strings : Robust.Error.t list -> Json.t
(** Issues as a list of {!Robust.Error.to_string} lines — the very
    strings the one-shot CLI prints, so differential tests compare
    byte-for-byte. *)

(** {2 Request builders} (clients, tests, the bench loadgen) *)

val ping_json : Json.t
val list_targets_json : Json.t
val stats_json : Json.t
val health_json : Json.t
val shutdown_json : Json.t

val register_json : ?kernel:bool -> ?plan:string -> name:string -> (string * string) list -> Json.t
(** Tables as [(name, csv)] pairs; [plan] is a spec string
    ([default | filter[:K[,TAU]]]) setting the target's default
    candidate filter. *)

val update_json :
  ?appends:Json.t list list -> ?deletes:int list -> target:string -> table:string -> unit -> Json.t
(** Build an [update-target] request; appended rows as JSON cell
    lists. *)

val match_json :
  ?tau:float ->
  ?omega:float ->
  ?late:bool ->
  ?select:string ->
  ?algorithm:string ->
  ?seed:int ->
  ?jobs:int ->
  ?timeout_ms:int ->
  ?kernel:bool ->
  ?lenient:bool ->
  ?faults:Robust.Fault.arming list ->
  ?plan:string ->
  target:string ->
  (string * string) list ->
  Json.t
