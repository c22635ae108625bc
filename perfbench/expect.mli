(** The benchmark's expectation of the engine's committed state,
    computed from the generated script alone in near-linear time.

    The rule is the paper's §4.1: an update counts iff the transaction
    responsible for it at the crash — its invoker, or its last delegatee
    — committed (here: its commit was acknowledged durable); updates
    undone by a partial rollback never count. [Oracle.expected_for]
    implements the same rule by walking every earlier update on each
    [Delegate] and [Rollback_to], which is quadratic in script length.
    Here each (transaction, object) responsibility group is a
    union-find node whose root carries the responsible transaction, so
    a delegation is one union; a partial rollback scans only the
    updates issued since its savepoint. *)

val apply :
  values:int array ->
  committed:(int -> bool) ->
  ?crash_at:int ->
  Ariesrh_workload.Script.action array ->
  unit
(** Fold the script's counted updates, in order, into [values]: the
    state after the script (or its first [crash_at] actions), starting
    from [values]. Scripts run back to back fold one after another. *)

val expected_for :
  n_objects:int ->
  committed:(int -> bool) ->
  ?crash_at:int ->
  Ariesrh_workload.Script.t ->
  int array
(** Same signature and result as [Oracle.expected_for]. *)
