(** One engine under test — a plain [Db] (with its governor, when the
    workload has one) or a [Sharded] router driven inline — and the
    benchmark's calls into it. Every call is timed as a span when the
    span log is enabled; commits are timed begin → durable through
    [Db.set_commit_durable_hook]. *)

type t

val create :
  ?pool:Ariesrh_shard.Shard_pool.t ->
  Inputs.shape ->
  mode:Ariesrh_core.Config.recovery_mode ->
  tracing:bool ->
  live_fault:bool ->
  Spans.t ->
  t
(** On the sim backend. [live_fault] attaches a
    counting, unarmed fault injector so a crash can be armed later.
    [pool] runs each shard on its own domain (multi-shard shapes). *)

val dbs : t -> Ariesrh_core.Db.t array

val set_spans : t -> Spans.t -> unit
(** Record further calls into another span log (crash images are built
    untraced, then restarted traced). *)

val migrate_forces : t -> int
(** Log forces, across shards, issued inside the benchmark's migrate
    calls so far. *)

val sharded : t -> Ariesrh_shard.Sharded.t option
val governor : t -> Ariesrh_maintenance.Governor.t option
val fault : t -> Ariesrh_fault.Fault.t option

val run : t -> Inputs.script -> unit
(** Execute a script. An operation the engine refuses with a typed
    error (conflict, inactive transaction, overload, refused transfer,
    recovering object) is counted in {!failed} and the script goes on;
    the generator issues none that should be refused. *)

val ops : t -> int
(** Operations attempted so far. *)

val failed : t -> int
(** Operations refused so far. *)

val commits_acked : t -> int
(** Commits acknowledged durable so far. *)

val take_latencies_us : t -> float array
(** Begin → durable-commit latency of every commit acknowledged since
    the last call. *)

val track_acks : t -> unit
(** Remember which script transactions were acknowledged, for
    {!acked}. *)

val acked : t -> int -> bool

val flush_commits : t -> unit

val ack_durable_commits : t -> int
(** Acknowledge every open commit whose Commit record the log already
    holds durable, though its group was not flushed (a flush for another
    reason hardened it); returns how many. [crash] drops such a group
    without firing the durable hook, yet those commits survive restart. *)

val crash : t -> unit
val recover : t -> Ariesrh_recovery.Report.t array
val recovering : t -> bool
val recovery_backlog : t -> int
val recovery_step : t -> bool
val await_recovery : t -> unit
val migrate : t -> int -> target:int -> unit

val probe_commit : t -> int -> unit
(** One transaction on shard 0: add 1 to the object, commit, and force
    it durable. *)

val peek_all : t -> int array
val home : t -> int -> int
val audit : t -> string list
val resolved : t -> int
(** In-doubt transfers resolved by restarts so far. *)

val migrations : t -> int
val close : t -> unit
