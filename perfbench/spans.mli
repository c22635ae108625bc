(** The traced run's span log: one span per benchmark call into an
    engine layer, kept in memory and written out when the run ends.

    A span has a kind (which public function was called), a start and
    an end on the {!Clock}, and a parent: the phase span (load, one
    restart, one drain) that was open when the call was made. When
    disabled, {!start} and {!stop} cost one branch and record nothing. *)

type t

(** Span kinds: one per engine call the benchmark makes, then phases. *)

val k_begin : int
val k_read : int
val k_update : int
val k_delegate : int
val k_savepoint : int
val k_rollback : int
val k_commit : int
val k_abort : int
val k_checkpoint : int
val k_truncate : int
val k_flush_commits : int
val k_tick : int
val k_migrate : int
val k_crash : int
val k_recover : int
val k_recovery_step : int
val k_await_recovery : int
val k_phase_load : int
val k_phase_restart : int
val k_phase_open : int
val k_phase_drain : int

val create : enabled:bool -> t

val start : t -> int
(** Clock reading when enabled, [0] otherwise. *)

val stop : t -> int -> int -> unit
(** [stop t kind t0] records a call span from [t0] to now under the open
    phase. *)

val phase : t -> int -> (unit -> 'a) -> 'a
(** Run the thunk as a phase span; calls recorded inside get it as
    parent. *)

val durations : t -> phase:int -> int -> float array
(** Durations in microseconds of the call spans of a kind whose parent
    is a phase of kind [phase]. *)

val coverage : t -> phases:int list -> float
(** Share of the wall time of the phases of the given kinds covered by
    their call spans. *)

val write : t -> string -> unit
(** Write every span as a tab-separated line
    [id parent name start_ns end_ns] (times relative to the first span). *)
