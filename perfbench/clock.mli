(** Monotonic nanosecond clock (bechamel's [Monotonic_clock]). *)

val now_ns : unit -> int
val seconds : int -> float
(** Nanoseconds to seconds. *)

val since : int -> float
(** Seconds elapsed since a {!now_ns} reading. *)
