(** Orchestration of live target maintenance: a prepared target plus
    per-table {!Profiles} state, advanced delta by delta.

    Each successful {!update} yields a {e new} prepared-target artefact
    — the previous one is never mutated, so readers of an older
    generation stay valid and a failed update leaves no trace.  Small
    deltas take the O(delta) patch path
    ({!Matching.Standard_match.patch_prepared}), whatever grams their
    rows hold; a delta whose churn exceeds the limit falls back to a
    cold {!Matching.Standard_match.prepare_target} — the two paths
    produce bit-identical match results, which is the differential
    suite's central claim.

    With a store, an update persists only artefacts: either path
    writes the changed table's artefacts through under its new
    {!Store.table_digest}, so a restarted process warms from the
    updated state.  Updates pass the [Robust.Fault.Delta_apply] site
    (key ["table:generation"]) before touching any state; an exception
    raised later, by the patch or the rebuild (a [Memo_lookup] fault,
    say), restores the table's maintained state before it escapes. *)

type outcome =
  | Patched  (** O(delta) patch of the maintained profiles and the artefact *)
  | Rebuilt of string  (** cold rebuild; the reason (the churn over its limit) *)

type t

val create :
  ?store:Store.t ->
  ?kernel:bool ->
  ?churn:float ->
  target:Relational.Database.t ->
  prepared:Matching.Standard_match.prepared_target ->
  unit ->
  t
(** Take over maintenance of [prepared] (built over [target]).  Scans
    each table once to seed the maintained state.  [store] must match
    what [prepared] was built with (it governs rebuilds; a patch writes
    through the store [prepared] carries).  [kernel] has no effect (it
    is accepted for callers that still pass it).  [churn] (default
    0.25) is the patch/rebuild threshold on {!Core.churn}. *)

val update : t -> Core.t -> (outcome, string) result
(** Apply one delta: validate, pass the fault site, then patch or
    rebuild (see above).  [Error] on an unknown table or a delta that
    fails {!Core.validate} — the state is unchanged.  An escaping
    exception (an injected fault at either site, say) also leaves the
    previous generation fully intact: target, artefact, generation and
    maintained state. *)

val prepared : t -> Matching.Standard_match.prepared_target
(** The current generation's artefact. *)

val target : t -> Relational.Database.t
(** The current (post-delta) target database. *)

val generation : t -> int
(** Successful updates so far (0 at creation). *)
